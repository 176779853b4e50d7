package cjdbc

import (
	"errors"
	"fmt"
	"net/url"
	"strings"

	"cjdbc/internal/netproto"
	"cjdbc/internal/sqlval"
)

// DSN is a parsed cjdbc:// connection URL:
//
//	cjdbc://host1:port1,host2:port2/vdbname?user=u&password=p
//
// Listing several controllers enables transparent failover (§2.3): when the
// current controller dies, the driver reconnects to the next one. An open
// transaction cannot survive a failover and is reported as an error; auto-
// commit statements retry transparently.
type DSN struct {
	Controllers []string
	VDB         string
	User        string
	Password    string
}

// ParseDSN parses a cjdbc:// URL.
func ParseDSN(dsn string) (*DSN, error) {
	u, err := url.Parse(dsn)
	if err != nil {
		return nil, fmt.Errorf("cjdbc: bad dsn: %w", err)
	}
	if u.Scheme != "cjdbc" {
		return nil, fmt.Errorf("cjdbc: dsn scheme must be cjdbc://, got %q", u.Scheme)
	}
	vdb := strings.TrimPrefix(u.Path, "/")
	if vdb == "" {
		return nil, errors.New("cjdbc: dsn is missing the virtual database name")
	}
	hosts := strings.Split(u.Host, ",")
	if len(hosts) == 0 || hosts[0] == "" {
		return nil, errors.New("cjdbc: dsn names no controller")
	}
	d := &DSN{Controllers: hosts, VDB: vdb}
	q := u.Query()
	d.User = q.Get("user")
	d.Password = q.Get("password")
	if u.User != nil {
		d.User = u.User.Username()
		if p, ok := u.User.Password(); ok {
			d.Password = p
		}
	}
	return d, nil
}

// ErrTxLostOnFailover is returned when the controller serving an open
// transaction dies: the transaction state died with it (backends roll the
// transaction back when the controller session disappears).
var ErrTxLostOnFailover = errors.New("cjdbc: controller failed with a transaction open; transaction rolled back")

// Connect dials a remote virtual database. The returned Session fails over
// transparently between the DSN's controllers.
func Connect(dsn string) (Session, error) {
	d, err := ParseDSN(dsn)
	if err != nil {
		return nil, err
	}
	rs := &remoteSession{dsn: d}
	if err := rs.redial(); err != nil {
		return nil, err
	}
	return rs, nil
}

type remoteSession struct {
	dsn    *DSN
	client *netproto.Client
	next   int // index of the next controller to try
	inTx   bool
	closed bool
	args   argVector
}

// redial connects to the first reachable controller, round-robin from the
// last used index.
func (r *remoteSession) redial() error {
	var firstErr error
	for i := 0; i < len(r.dsn.Controllers); i++ {
		addr := r.dsn.Controllers[(r.next+i)%len(r.dsn.Controllers)]
		c, err := netproto.Dial(addr, r.dsn.VDB, r.dsn.User, r.dsn.Password)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.client = c
		r.next = (r.next + i) % len(r.dsn.Controllers)
		return nil
	}
	return fmt.Errorf("cjdbc: no controller reachable: %w", firstErr)
}

func (r *remoteSession) exec(sql string, params []sqlval.Value) (*Rows, error) {
	if r.closed {
		return nil, errors.New("cjdbc: session closed")
	}
	for attempt := 0; ; attempt++ {
		res, err := r.client.Exec(sql, params)
		if err == nil {
			return wrapOwned(res), nil
		}
		if !netproto.IsConnLost(err) || attempt >= len(r.dsn.Controllers) {
			return nil, err
		}
		// Transparent failover to the next controller.
		_ = r.client.Close()
		r.next++
		if rerr := r.redial(); rerr != nil {
			return nil, rerr
		}
		if r.inTx {
			r.inTx = false
			return nil, ErrTxLostOnFailover
		}
	}
}

func (r *remoteSession) Exec(sql string, args ...any) (*Rows, error) {
	params, err := r.args.fill(args)
	if err != nil {
		return nil, err
	}
	rows, err := r.exec(sql, params)
	r.args.release()
	if err != nil {
		return nil, err
	}
	switch kw := leadingKeyword(sql); {
	case strings.EqualFold(kw, "BEGIN"), strings.EqualFold(kw, "START"):
		r.inTx = true
	case strings.EqualFold(kw, "COMMIT"), strings.EqualFold(kw, "ROLLBACK"), strings.EqualFold(kw, "ABORT"):
		r.inTx = false
	}
	return rows, nil
}

func (r *remoteSession) Query(sql string, args ...any) (*Rows, error) { return r.Exec(sql, args...) }
func (r *remoteSession) Begin() error                                 { _, err := r.Exec("BEGIN"); return err }
func (r *remoteSession) Commit() error                                { _, err := r.Exec("COMMIT"); return err }
func (r *remoteSession) Rollback() error                              { _, err := r.Exec("ROLLBACK"); return err }

func (r *remoteSession) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.client.Close()
}

// leadingKeyword returns the first word of sql as the parser reads it: it
// skips whitespace, "-- …" line comments and "/* … */" block comments, then
// takes the run of ASCII letters, so "/* app */ begin;" yields "begin". It
// does not allocate.
func leadingKeyword(sql string) string {
	i := 0
	for i < len(sql) {
		switch c := sql[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case strings.HasPrefix(sql[i:], "--"):
			if end := strings.IndexByte(sql[i:], '\n'); end >= 0 {
				i += end
			} else {
				i = len(sql)
			}
		case strings.HasPrefix(sql[i:], "/*"):
			if end := strings.Index(sql[i+2:], "*/"); end >= 0 {
				i += 2 + end + 2
			} else {
				i = len(sql)
			}
		default:
			j := i
			for j < len(sql) && ('a' <= sql[j] && sql[j] <= 'z' || 'A' <= sql[j] && sql[j] <= 'Z') {
				j++
			}
			return sql[i:j]
		}
	}
	return ""
}
