// Package distributed implements C-JDBC's horizontal scalability (§4.1):
// the schedulers of a virtual database hosted by several controllers are
// synchronized through totally ordered group communication. Only write
// requests and transaction demarcation travel through the group; reads stay
// local to each controller. All other components (scheduler, cache, load
// balancer) are unchanged, exactly as the paper describes.
package distributed

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cjdbc/internal/backend"
	"cjdbc/internal/controller"
	"cjdbc/internal/groupcomm"
	"cjdbc/internal/sqlparser"
)

// ErrLeft is returned when submitting to a distributed vdb that left its group.
var ErrLeft = errors.New("distributed: controller has left the group")

// writeMsg is the payload of one ordered write broadcast.
type writeMsg struct {
	ReqID  uint64 `json:"req"`
	Origin string `json:"origin"`
	TxID   uint64 `json:"tx"`
	Class  uint8  `json:"class"`
	SQL    string `json:"sql"`
	User   string `json:"user"`
}

// VDB is one controller's participation in a distributed virtual database.
type VDB struct {
	vdb    *controller.VirtualDatabase
	member *groupcomm.Member
	name   string

	mu      sync.Mutex
	waiters map[uint64]chan submitResult
	left    bool

	reqSeq atomic.Uint64
	done   chan struct{}
}

// submitResult hands the local dispatch outcome back to the submitting
// client goroutine: the shared outcome channel of the enqueued cluster
// write, or the dispatch error. The client applies the early-response
// policy itself, so the applier never blocks on execution.
type submitResult struct {
	outs backend.Outcomes
	err  error
}

// Join attaches a virtual database to a controller group. The returned VDB
// installs itself as the vdb's distributor: every write, commit and abort
// is broadcast with total order and applied by every member in the same
// sequence.
func Join(v *controller.VirtualDatabase, g *groupcomm.Group, controllerName string) (*VDB, error) {
	m, err := g.Join(controllerName)
	if err != nil {
		return nil, err
	}
	d := &VDB{
		vdb:     v,
		member:  m,
		name:    controllerName,
		waiters: make(map[uint64]chan submitResult),
		done:    make(chan struct{}),
	}
	go d.run()
	v.SetDistributor(d)
	return d, nil
}

// Name returns the controller name inside the group.
func (d *VDB) Name() string { return d.name }

// Leave detaches from the group; the vdb reverts to purely local operation.
func (d *VDB) Leave() {
	d.mu.Lock()
	if d.left {
		d.mu.Unlock()
		return
	}
	d.left = true
	d.mu.Unlock()
	d.vdb.SetDistributor(nil)
	d.member.Leave()
	<-d.done
}

// SubmitWrite implements controller.Distributor: the operation is broadcast
// with total order and the call returns the local application's outcome.
func (d *VDB) SubmitWrite(txID uint64, class sqlparser.StatementClass, sql string) (*backend.Result, error) {
	d.mu.Lock()
	if d.left {
		d.mu.Unlock()
		return nil, ErrLeft
	}
	reqID := d.reqSeq.Add(1)
	ch := make(chan submitResult, 1)
	d.waiters[reqID] = ch
	d.mu.Unlock()

	payload, err := json.Marshal(writeMsg{ReqID: reqID, Origin: d.name, TxID: txID, Class: uint8(class), SQL: sql})
	if err != nil {
		return nil, err
	}
	if _, err := d.member.Broadcast("write", payload); err != nil {
		d.mu.Lock()
		delete(d.waiters, reqID)
		d.mu.Unlock()
		return nil, fmt.Errorf("distributed: broadcast: %w", err)
	}
	r := <-ch
	if r.err != nil {
		return nil, r.err
	}
	return d.vdb.WaitPolicy(r.outs)
}

// run is the applier: deliveries arrive strictly in total order and each
// is applied, inline, before the next is read — the state-machine approach,
// so every controller sequences the same writes in the same order. A
// dispatch ends at the enqueue (the backends' write pipeline executes
// asynchronously, and the submitting client applies the early-response
// policy itself), so a write stalled on database locks cannot prevent the
// commit that releases them from being delivered. Membership views carry
// nothing the applier acts on, but they are drained: the group's pump
// blocks once the views channel fills.
func (d *VDB) run() {
	defer close(d.done)
	msgs := d.member.Deliver()
	views := d.member.Views()
	for {
		select {
		case msg, ok := <-msgs:
			if !ok {
				return
			}
			d.apply(msg)
		case _, ok := <-views:
			if !ok {
				return
			}
		}
	}
}

// apply dispatches one delivery and, if this controller sent it, hands the
// result to the waiting client. Remote-origin outcomes need no waiter: the
// channel is buffered for every backend, and local failures disable local
// backends via their own callbacks.
func (d *VDB) apply(msg groupcomm.Message) {
	var wm writeMsg
	if msg.Kind != "write" || json.Unmarshal(msg.Payload, &wm) != nil {
		return
	}
	outs, err := d.vdb.ApplyDelivery(wm.TxID, sqlparser.StatementClass(wm.Class), wm.SQL, wm.User)
	if wm.Origin != d.name {
		return
	}
	d.mu.Lock()
	ch := d.waiters[wm.ReqID]
	delete(d.waiters, wm.ReqID)
	d.mu.Unlock()
	if ch != nil {
		ch <- submitResult{outs: outs, err: err}
	}
}
