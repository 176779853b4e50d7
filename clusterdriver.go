package cjdbc

import (
	"cjdbc/internal/backend"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// clusterDriver is the C-JDBC driver re-injected as a backend native driver
// (§4.2 vertical scalability): the "database" behind this driver is another
// virtual database, reached through the normal cjdbc:// wire protocol.
// Arbitrary controller trees compose this way (Figures 4 and 5).
type clusterDriver struct {
	dsn string
}

var _ backend.Driver = (*clusterDriver)(nil)

// Open dials a new session on the nested virtual database.
func (d *clusterDriver) Open() (backend.Conn, error) {
	sess, err := Connect(d.dsn)
	if err != nil {
		return nil, err
	}
	return &clusterConn{sess: sess.(*remoteSession)}, nil
}

// clusterConn adapts a remote session to the backend.Conn interface.
type clusterConn struct {
	sess *remoteSession
}

// Exec hands a bound statement to the nested controller as it arrived — its
// text with placeholders plus the parameter vector — so the nested
// controller's plan and result caches see one text per statement and no
// value is rendered into SQL on the way.
func (c *clusterConn) Exec(st sqlparser.Statement, sql string) (*backend.Result, error) {
	var params []sqlval.Value
	if b, ok := st.(*sqlparser.Bound); ok {
		sql, params = b.SQL, b.Params
	} else if sql == "" && st != nil {
		sql = sqlparser.Render(st)
	}
	rows, err := c.sess.exec(sql, params)
	if err != nil {
		return nil, err
	}
	return &backend.Result{
		Columns:      rows.Columns,
		Rows:         rows.rows,
		RowsAffected: rows.RowsAffected,
		LastInsertID: rows.LastInsertID,
	}, nil
}

func (c *clusterConn) Begin() error {
	_, err := c.sess.exec("BEGIN", nil)
	if err == nil {
		c.sess.inTx = true
	}
	return err
}

func (c *clusterConn) Commit() error {
	_, err := c.sess.exec("COMMIT", nil)
	c.sess.inTx = false
	return err
}

func (c *clusterConn) Rollback() error {
	_, err := c.sess.exec("ROLLBACK", nil)
	c.sess.inTx = false
	return err
}

func (c *clusterConn) Close() error { return c.sess.Close() }
