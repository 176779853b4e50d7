// Package tpcw is the benchmark's frozen copy of the TPC-W shopping mix
// (§6.2 of the paper): the online-bookstore schema, a scaled-down data
// loader, and the SQL of the 14 web interactions at the shopping mix's
// frequencies (80 % read-only). It was copied from internal/workload/tpcw
// when the benchmark was defined, so a later change to that package cannot
// change what the tpcw_shopping workload sends. The statements and the order
// of the random draws are the original's; only the other two mixes and the
// partial-replication table lists were dropped.
package tpcw

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"cjdbc"
)

// Scale controls the generated database size. The paper uses 10,000 items
// and 288,000 customers (350 MB on MySQL); the benchmark scales that down,
// preserving the ratios that matter (orders ≈ 0.9 × customers, ~3 lines per
// order).
type Scale struct {
	Items     int
	Customers int
	Authors   int
}

// Orders derives the initial order count.
func (s Scale) Orders() int { return s.Customers * 9 / 10 }

// SchemaSQL returns the DDL creating the TPC-W schema.
func SchemaSQL() []string {
	return []string{
		`CREATE TABLE customer (
			c_id INTEGER PRIMARY KEY,
			c_uname VARCHAR NOT NULL,
			c_passwd VARCHAR NOT NULL,
			c_fname VARCHAR,
			c_lname VARCHAR,
			c_email VARCHAR,
			c_since TIMESTAMP,
			c_discount FLOAT,
			c_addr_id INTEGER)`,
		`CREATE TABLE address (
			addr_id INTEGER PRIMARY KEY,
			addr_street VARCHAR,
			addr_city VARCHAR,
			addr_state VARCHAR,
			addr_zip VARCHAR,
			addr_country VARCHAR)`,
		`CREATE TABLE author (
			a_id INTEGER PRIMARY KEY,
			a_fname VARCHAR,
			a_lname VARCHAR)`,
		`CREATE TABLE item (
			i_id INTEGER PRIMARY KEY,
			i_title VARCHAR NOT NULL,
			i_a_id INTEGER,
			i_subject VARCHAR,
			i_pub_date TIMESTAMP,
			i_cost FLOAT,
			i_srp FLOAT,
			i_stock INTEGER,
			i_isbn VARCHAR)`,
		`CREATE TABLE orders (
			o_id INTEGER PRIMARY KEY,
			o_c_id INTEGER,
			o_date TIMESTAMP,
			o_sub_total FLOAT,
			o_total FLOAT,
			o_status VARCHAR)`,
		`CREATE TABLE order_line (
			ol_id INTEGER PRIMARY KEY,
			ol_o_id INTEGER,
			ol_i_id INTEGER,
			ol_qty INTEGER,
			ol_discount FLOAT)`,
		`CREATE TABLE cc_xacts (
			cx_o_id INTEGER PRIMARY KEY,
			cx_type VARCHAR,
			cx_amount FLOAT,
			cx_auth_date TIMESTAMP)`,
		`CREATE TABLE shopping_cart (
			sc_id INTEGER PRIMARY KEY,
			sc_time TIMESTAMP,
			sc_c_id INTEGER)`,
		`CREATE TABLE shopping_cart_line (
			scl_id INTEGER PRIMARY KEY,
			scl_sc_id INTEGER,
			scl_i_id INTEGER,
			scl_qty INTEGER)`,
		`CREATE INDEX idx_item_author ON item (i_a_id)`,
		`CREATE INDEX idx_orders_cust ON orders (o_c_id)`,
		`CREATE INDEX idx_ol_order ON order_line (ol_o_id)`,
		`CREATE INDEX idx_ol_item ON order_line (ol_i_id)`,
		`CREATE INDEX idx_scl_cart ON shopping_cart_line (scl_sc_id)`,
		// Single-column indexes carry an ordered (skiplist) view: the browse
		// mix's subject filters, new-products date ranges and best-seller
		// ORDER BY ... LIMIT queries plan as bounded index scans.
		`CREATE INDEX idx_item_subject ON item (i_subject)`,
		`CREATE INDEX idx_item_pub_date ON item (i_pub_date)`,
		`CREATE INDEX idx_item_title ON item (i_title)`,
		`CREATE INDEX idx_orders_date ON orders (o_date)`,
	}
}

var subjects = []string{
	"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS",
	"COOKING", "HEALTH", "HISTORY", "HOME", "HUMOR",
}

// Load populates the virtual database through a session so that every
// backend receives identical data, batching inserts for speed.
func Load(sess cjdbc.Session, sc Scale, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, ddl := range SchemaSQL() {
		if _, err := sess.Exec(ddl); err != nil {
			return fmt.Errorf("tpcw: schema: %w", err)
		}
	}
	batch := func(prefix string, n int, row func(i int) string) error {
		const chunk = 50
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			sql := prefix
			for i := lo; i < hi; i++ {
				if i > lo {
					sql += ", "
				}
				sql += row(i)
			}
			if _, err := sess.Exec(sql); err != nil {
				return fmt.Errorf("tpcw: load: %w", err)
			}
		}
		return nil
	}

	if err := batch("INSERT INTO author (a_id, a_fname, a_lname) VALUES ", sc.Authors, func(i int) string {
		return fmt.Sprintf("(%d, 'fn%d', 'ln%d')", i+1, i+1, i+1)
	}); err != nil {
		return err
	}
	if err := batch("INSERT INTO address (addr_id, addr_street, addr_city, addr_state, addr_zip, addr_country) VALUES ", sc.Customers, func(i int) string {
		return fmt.Sprintf("(%d, 'street%d', 'city%d', 'st', 'zip%d', 'country')", i+1, i+1, i%17, i+1)
	}); err != nil {
		return err
	}
	if err := batch("INSERT INTO customer (c_id, c_uname, c_passwd, c_fname, c_lname, c_email, c_since, c_discount, c_addr_id) VALUES ", sc.Customers, func(i int) string {
		return fmt.Sprintf("(%d, 'user%d', 'pw%d', 'first%d', 'last%d', 'u%d@tpcw.org', '2003-0%d-01 00:00:00', %g, %d)",
			i+1, i+1, i+1, i+1, i+1, i+1, i%9+1, float64(i%5)/100, i+1)
	}); err != nil {
		return err
	}
	if err := batch("INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_pub_date, i_cost, i_srp, i_stock, i_isbn) VALUES ", sc.Items, func(i int) string {
		return fmt.Sprintf("(%d, 'Title of Book %d', %d, '%s', '200%d-0%d-01 00:00:00', %g, %g, %d, 'isbn%d')",
			i+1, i+1, i%sc.Authors+1, subjects[i%len(subjects)], i%4, i%9+1,
			10+float64(i%50), 12+float64(i%50), 50+i%100, i+1)
	}); err != nil {
		return err
	}
	nOrders := sc.Orders()
	if err := batch("INSERT INTO orders (o_id, o_c_id, o_date, o_sub_total, o_total, o_status) VALUES ", nOrders, func(i int) string {
		return fmt.Sprintf("(%d, %d, '2003-1%d-0%d 00:00:00', %g, %g, 'shipped')",
			i+1, rng.Intn(sc.Customers)+1, i%3, i%9+1, float64(20+i%80), float64(25+i%80))
	}); err != nil {
		return err
	}
	nLines := nOrders * 3
	if err := batch("INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount) VALUES ", nLines, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %d, 0)",
			i+1, i/3+1, rng.Intn(sc.Items)+1, rng.Intn(5)+1)
	}); err != nil {
		return err
	}
	if err := batch("INSERT INTO cc_xacts (cx_o_id, cx_type, cx_amount, cx_auth_date) VALUES ", nOrders, func(i int) string {
		return fmt.Sprintf("(%d, 'VISA', %g, '2003-12-01 00:00:00')", i+1, float64(25+i%80))
	}); err != nil {
		return err
	}
	return nil
}

// interaction identifies one of the 14 TPC-W web interactions (those with
// identical database footprints are folded together).
type interaction int

const (
	iHome interaction = iota
	iNewProducts
	iBestSellers
	iProductDetail
	iSearch
	iOrderInquiry
	iShoppingCart
	iCustomerRegistration
	iBuyRequest
	iBuyConfirm
	iAdminUpdate
	nInteractions
)

// shoppingWeights approximates the TPC-W interaction frequencies of the
// shopping mix; the read-only weights sum to ~80 %.
var shoppingWeights = [nInteractions]float64{16, 5, 5, 17, 36.25, 0.75, 11.6, 2.6, 2.6, 1.2, 2}

// Client drives the TPC-W interactions against one session, the role an
// emulated browser plays in the paper's setup.
type Client struct {
	sess    cjdbc.Session
	scale   Scale
	rng     *rand.Rand
	id      int
	weights [nInteractions]float64
	totalW  float64
	cartSeq atomic.Int64

	// idAlloc allocates cluster-unique ids for inserts; shared by all
	// clients of one run.
	idAlloc *IDAllocator
}

// IDAllocator hands out unique primary keys to concurrent clients.
type IDAllocator struct {
	next atomic.Int64
}

// NewIDAllocator starts allocation above the loaded data.
func NewIDAllocator(start int64) *IDAllocator {
	a := &IDAllocator{}
	a.next.Store(start)
	return a
}

// Next returns a fresh id.
func (a *IDAllocator) Next() int64 { return a.next.Add(1) }

// NewClient builds a workload client.
func NewClient(id int, sess cjdbc.Session, sc Scale, rng *rand.Rand, alloc *IDAllocator) *Client {
	c := &Client{sess: sess, scale: sc, rng: rng, id: id, idAlloc: alloc, weights: shoppingWeights}
	for _, w := range c.weights {
		c.totalW += w
	}
	return c
}

// pick draws an interaction according to the mix weights.
func (c *Client) pick() interaction {
	x := c.rng.Float64() * c.totalW
	for i := interaction(0); i < nInteractions; i++ {
		x -= c.weights[i]
		if x < 0 {
			return i
		}
	}
	return iHome
}

// Interaction runs one randomly chosen interaction, returning the number of
// SQL requests it issued (the unit of Figures 10-12).
func (c *Client) Interaction() (int, error) {
	switch c.pick() {
	case iHome:
		return c.home()
	case iNewProducts:
		return c.newProducts()
	case iBestSellers:
		return c.bestSellers()
	case iProductDetail:
		return c.productDetail()
	case iSearch:
		return c.search()
	case iOrderInquiry:
		return c.orderInquiry()
	case iShoppingCart:
		return c.shoppingCart()
	case iCustomerRegistration:
		return c.customerRegistration()
	case iBuyRequest:
		return c.buyRequest()
	case iBuyConfirm:
		return c.buyConfirm()
	default:
		return c.adminUpdate()
	}
}

func (c *Client) randCustomer() int { return c.rng.Intn(c.scale.Customers) + 1 }
func (c *Client) randItem() int     { return c.rng.Intn(c.scale.Items) + 1 }

func (c *Client) home() (int, error) {
	n := 0
	if _, err := c.sess.Query("SELECT c_fname, c_lname FROM customer WHERE c_id = ?", c.randCustomer()); err != nil {
		return n, err
	}
	n++
	if _, err := c.sess.Query("SELECT i_id, i_title FROM item WHERE i_id = ?", c.randItem()); err != nil {
		return n, err
	}
	n++
	return n, nil
}

// newProducts is TPC-W's recency browse: newest items in a subject. It
// alternates the plain subject scan with the full spec shape — a
// publication-date *range* (only items newer than a cutoff) ordered
// newest-first and truncated, which plans as a bounded reverse scan of the
// i_pub_date ordered index.
func (c *Client) newProducts() (int, error) {
	subject := subjects[c.rng.Intn(len(subjects))]
	var err error
	if c.rng.Intn(2) == 0 {
		_, err = c.sess.Query(
			"SELECT i_id, i_title, i_pub_date, a_fname, a_lname FROM item JOIN author ON i_a_id = a_id WHERE i_subject = ? AND i_pub_date >= ? ORDER BY i_pub_date DESC, i_title LIMIT 50",
			subject, fmt.Sprintf("200%d-01-01 00:00:00", c.rng.Intn(4)))
	} else {
		_, err = c.sess.Query(
			"SELECT i_id, i_title, a_fname, a_lname FROM item JOIN author ON i_a_id = a_id WHERE i_subject = ? ORDER BY i_pub_date DESC, i_title LIMIT 50",
			subject)
	}
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// bestSellers is the interaction behind Figure 10's sub-linear scaling
// under full replication: a temporary table is created (a write, broadcast
// to every backend hosting order_line), queried on one backend, and
// dropped. The whole flow runs in a transaction so the temporary table
// lives on a pinned connection.
func (c *Client) bestSellers() (int, error) {
	tmp := fmt.Sprintf("besttmp_%d_%d", c.id, c.cartSeq.Add(1))
	n := 0
	if err := c.sess.Begin(); err != nil {
		return n, err
	}
	abort := func(err error) (int, error) {
		_ = c.sess.Rollback()
		return n, err
	}
	if _, err := c.sess.Exec(fmt.Sprintf(
		"CREATE TEMPORARY TABLE %s AS SELECT ol_i_id, SUM(ol_qty) AS total FROM order_line GROUP BY ol_i_id ORDER BY total DESC LIMIT 50", tmp)); err != nil {
		return abort(err)
	}
	n++
	if _, err := c.sess.Query(fmt.Sprintf(
		"SELECT i_id, i_title, a_fname, a_lname, t.total FROM %s t JOIN item ON i_id = t.ol_i_id JOIN author ON a_id = i_a_id ORDER BY t.total DESC", tmp)); err != nil {
		return abort(err)
	}
	n++
	if _, err := c.sess.Exec("DROP TABLE " + tmp); err != nil {
		return abort(err)
	}
	n++
	if err := c.sess.Commit(); err != nil {
		return n, err
	}
	return n, nil
}

func (c *Client) productDetail() (int, error) {
	_, err := c.sess.Query(
		"SELECT i_id, i_title, i_cost, i_srp, i_stock, a_fname, a_lname FROM item JOIN author ON i_a_id = a_id WHERE i_id = ?",
		c.randItem())
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func (c *Client) search() (int, error) {
	switch c.rng.Intn(3) {
	case 0:
		if _, err := c.sess.Query("SELECT i_id, i_title FROM item WHERE i_title LIKE ? LIMIT 50",
			fmt.Sprintf("%%Book %d%%", c.rng.Intn(c.scale.Items))); err != nil {
			return 0, err
		}
	case 1:
		if _, err := c.sess.Query(
			"SELECT i_id, i_title FROM item JOIN author ON i_a_id = a_id WHERE a_lname LIKE ? LIMIT 50",
			fmt.Sprintf("ln%d%%", c.rng.Intn(c.scale.Authors)+1)); err != nil {
			return 0, err
		}
	default:
		if _, err := c.sess.Query("SELECT i_id, i_title FROM item WHERE i_subject = ? ORDER BY i_title LIMIT 50",
			subjects[c.rng.Intn(len(subjects))]); err != nil {
			return 0, err
		}
	}
	return 1, nil
}

func (c *Client) orderInquiry() (int, error) {
	cid := c.randCustomer()
	n := 0
	rows, err := c.sess.Query(
		"SELECT o_id, o_date, o_total, o_status FROM orders WHERE o_c_id = ? ORDER BY o_date DESC LIMIT 1", cid)
	if err != nil {
		return n, err
	}
	n++
	if rows.Len() > 0 {
		rows.Next()
		var oid int64
		if err := rows.Scan(&oid); err != nil {
			return n, err
		}
		if _, err := c.sess.Query(
			"SELECT ol_i_id, ol_qty, i_title FROM order_line JOIN item ON ol_i_id = i_id WHERE ol_o_id = ?", oid); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (c *Client) shoppingCart() (int, error) {
	scID := c.idAlloc.Next()
	n := 0
	if _, err := c.sess.Exec("INSERT INTO shopping_cart (sc_id, sc_time, sc_c_id) VALUES (?, NOW(), ?)",
		scID, c.randCustomer()); err != nil {
		return n, err
	}
	n++
	lines := c.rng.Intn(3) + 1
	for i := 0; i < lines; i++ {
		if _, err := c.sess.Exec(
			"INSERT INTO shopping_cart_line (scl_id, scl_sc_id, scl_i_id, scl_qty) VALUES (?, ?, ?, ?)",
			c.idAlloc.Next(), scID, c.randItem(), c.rng.Intn(4)+1); err != nil {
			return n, err
		}
		n++
	}
	if _, err := c.sess.Query(
		"SELECT scl_i_id, scl_qty, i_title, i_cost FROM shopping_cart_line JOIN item ON scl_i_id = i_id WHERE scl_sc_id = ?", scID); err != nil {
		return n, err
	}
	n++
	return n, nil
}

func (c *Client) customerRegistration() (int, error) {
	id := c.idAlloc.Next()
	n := 0
	if _, err := c.sess.Exec(
		"INSERT INTO address (addr_id, addr_street, addr_city, addr_state, addr_zip, addr_country) VALUES (?, ?, ?, 'st', 'zip', 'country')",
		id, fmt.Sprintf("street%d", id), "newcity"); err != nil {
		return n, err
	}
	n++
	if _, err := c.sess.Exec(
		"INSERT INTO customer (c_id, c_uname, c_passwd, c_fname, c_lname, c_email, c_since, c_discount, c_addr_id) VALUES (?, ?, ?, 'new', 'customer', ?, NOW(), 0, ?)",
		id, fmt.Sprintf("nuser%d", id), "pw", fmt.Sprintf("n%d@tpcw.org", id), id); err != nil {
		return n, err
	}
	n++
	return n, nil
}

func (c *Client) buyRequest() (int, error) {
	n := 0
	if _, err := c.sess.Query("SELECT c_fname, c_lname, c_discount FROM customer WHERE c_id = ?", c.randCustomer()); err != nil {
		return n, err
	}
	n++
	if _, err := c.sess.Query("SELECT i_id, i_cost, i_stock FROM item WHERE i_id = ?", c.randItem()); err != nil {
		return n, err
	}
	n++
	return n, nil
}

// buyConfirm creates the order inside a transaction: insert into orders and
// order_line, decrement stock, record the credit-card transaction.
func (c *Client) buyConfirm() (int, error) {
	n := 0
	if err := c.sess.Begin(); err != nil {
		return n, err
	}
	abort := func(err error) (int, error) {
		_ = c.sess.Rollback()
		return n, err
	}
	oid := c.idAlloc.Next()
	if _, err := c.sess.Exec(
		"INSERT INTO orders (o_id, o_c_id, o_date, o_sub_total, o_total, o_status) VALUES (?, ?, NOW(), ?, ?, 'pending')",
		oid, c.randCustomer(), 30.0, 33.0); err != nil {
		return abort(err)
	}
	n++
	// All order lines in one multi-row insert, as the servlet
	// implementation batches them: this keeps the transaction's exclusive
	// lock window short.
	lines := c.rng.Intn(3) + 1
	items := make([]int, lines)
	insert := "INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount) VALUES "
	for i := 0; i < lines; i++ {
		items[i] = c.randItem()
		if i > 0 {
			insert += ", "
		}
		insert += fmt.Sprintf("(%d, %d, %d, %d, 0)", c.idAlloc.Next(), oid, items[i], c.rng.Intn(4)+1)
	}
	if _, err := c.sess.Exec(insert); err != nil {
		return abort(err)
	}
	n++
	for _, it := range items {
		if _, err := c.sess.Exec("UPDATE item SET i_stock = i_stock - 1 WHERE i_id = ? AND i_stock > 0", it); err != nil {
			return abort(err)
		}
		n++
	}
	if _, err := c.sess.Exec(
		"INSERT INTO cc_xacts (cx_o_id, cx_type, cx_amount, cx_auth_date) VALUES (?, 'VISA', 33.0, NOW())", oid); err != nil {
		return abort(err)
	}
	n++
	if err := c.sess.Commit(); err != nil {
		return n, err
	}
	return n, nil
}

func (c *Client) adminUpdate() (int, error) {
	if _, err := c.sess.Exec("UPDATE item SET i_cost = ?, i_pub_date = NOW() WHERE i_id = ?",
		10+c.rng.Float64()*50, c.randItem()); err != nil {
		return 0, err
	}
	return 1, nil
}
