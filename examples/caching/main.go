// Query result caching (§2.4.2, §6.6): even with a single backend, the
// controller's result cache absorbs repeated reads. This example shows a
// coherent cache invalidating on writes, then a relaxed cache serving stale
// data within its staleness limit.
package main

import (
	"fmt"
	"log"
	"time"

	"cjdbc"
)

func run(label string, cache *cjdbc.CacheConfig) {
	ctrl := cjdbc.NewController("ctrl-"+label, 1)
	defer ctrl.Close()
	vdb, err := ctrl.CreateVirtualDatabase(cjdbc.VirtualDatabaseConfig{
		Name:  "shop",
		Cache: cache,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := vdb.AddInMemoryBackend("mysql"); err != nil {
		log.Fatal(err)
	}
	sess, err := vdb.OpenSession("app", "")
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	sess.Exec("CREATE TABLE product (id INTEGER PRIMARY KEY, name VARCHAR, stock INTEGER)")
	sess.Exec("INSERT INTO product (id, name, stock) VALUES (1, 'widget', 10)")

	query := "SELECT name, stock FROM product WHERE id = 1"
	readStock := func() int64 {
		rows, err := sess.Query(query)
		if err != nil {
			log.Fatal(err)
		}
		rows.Next()
		var name string
		var stock int64
		rows.Scan(&name, &stock)
		return stock
	}

	readStock() // populate
	for i := 0; i < 99; i++ {
		readStock() // hits
	}
	backendOps := vdb.Internal().Backends()[0].Ops()
	stats := vdb.Internal().StatsSnapshot()
	fmt.Printf("[%s] 100 identical reads: %d cache hits, backend saw %d ops\n",
		label, stats.CacheHits, backendOps)

	// A write: the coherent cache invalidates, the relaxed one keeps
	// serving the stale entry until its staleness limit expires.
	sess.Exec("UPDATE product SET stock = 3 WHERE id = 1")
	fmt.Printf("[%s] stock after UPDATE reads as %d\n", label, readStock())
}

func main() {
	run("no-cache", nil)
	run("coherent", &cjdbc.CacheConfig{Granularity: "table"})
	run("relaxed-1m", &cjdbc.CacheConfig{Granularity: "table", Staleness: time.Minute})
	fmt.Println("note: the relaxed cache may report stale stock within its 1-minute window,")
	fmt.Println("trading freshness for the backend CPU reduction measured in Table 1")
}
