package main

import (
	"fmt"
	"hash/fnv"
	"testing"

	"cjdbc/bench/tpcw"
)

// tpcwStreamHash runs one tpcw client alone against a fresh cluster and
// hashes what it sent: tpcw_shopping draws its statements as it goes, so its
// stream exists only while it runs.
func tpcwStreamHash(t *testing.T, seed int64) uint64 {
	t.Helper()
	cl, err := newCluster(clusterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	sess, err := cl.open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := tpcw.Load(sess, tpcwScale, seed); err != nil {
		t.Fatal(err)
	}
	var sent []stmt
	c := tpcw.NewClient(0, recorder{Session: sess, out: &sent}, tpcwScale, clientRNG(seed, 0), tpcw.NewIDAllocator(1<<20))
	for i := 0; i < 60; i++ {
		if _, err := c.Interaction(); err != nil {
			t.Fatal(err)
		}
	}
	h := fnv.New64a()
	for _, s := range sent {
		fmt.Fprintln(h, s.sql, s.params)
	}
	return h.Sum64()
}

func TestSameSeedSameStreamDifferentSeedDifferentStream(t *testing.T) {
	for _, w := range workloads {
		hash := func(seed int64) uint64 {
			if w.gen == nil {
				return tpcwStreamHash(t, seed)
			}
			return streamHash(w.streams(seed, nClients, 400))
		}
		a, again, b := hash(11), hash(11), hash(12)
		if a != again {
			t.Errorf("%s: seed 11 gave two different streams", w.name)
		}
		if a == b {
			t.Errorf("%s: seeds 11 and 12 gave the same stream", w.name)
		}
	}
}

// The clients of one run must not send the same requests either.
func TestClientsOfOneRunDiffer(t *testing.T) {
	for _, w := range workloads {
		if w.gen == nil || w.recovery {
			continue
		}
		s := w.streams(5, nClients, 400)
		if streamHash(s[:1]) == streamHash(s[1:]) {
			t.Errorf("%s: both clients got the same stream", w.name)
		}
	}
}

func TestPointTxnTransfersConserveAndOrderTables(t *testing.T) {
	ops := genPointTxn(clientRNG(3, 0), 0, 4000)
	if len(ops) != 4000 {
		t.Fatalf("%d ops, want 4000", len(ops))
	}
	for i := 0; i < len(ops); i += 4 {
		b, u1, u2, c := ops[i], ops[i+1], ops[i+2], ops[i+3]
		if b.kind != opBegin || c.kind != opCommit || u1.kind != opUpdate || u2.kind != opUpdate {
			t.Fatalf("transaction %d is not BEGIN, UPDATE, UPDATE, COMMIT", i/4)
		}
		if u1.table >= u2.table {
			t.Fatalf("transaction %d locks kv%d before kv%d: a deadlock is possible", i/4, u1.table, u2.table)
		}
		if u1.delta+u2.delta != 0 {
			t.Fatalf("transaction %d does not conserve SUM(v): %d and %d", i/4, u1.delta, u2.delta)
		}
	}
}
