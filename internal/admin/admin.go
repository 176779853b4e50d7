// Package admin exposes the controller's monitoring and administration
// surface over HTTP/JSON, standing in for the JMX server and administration
// console of the paper (§2.1: "the controller can be dynamically configured
// and monitored through JMX").
package admin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	"cjdbc/internal/balancer"
	"cjdbc/internal/controller"
)

// BackendInfo is the monitoring view of one backend.
type BackendInfo struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Weight   int    `json:"weight"`
	Pending  int    `json:"pending"`
	Ops      int64  `json:"ops"`
	Failures int64  `json:"failures"`
}

// VDBInfo is the monitoring view of one virtual database. Placement and
// TableLoads are present only under partial replication: the current
// table -> hosts map (which placement moves mutate at runtime) and the
// cumulative per-table read/write counters feeding the placement policy.
type VDBInfo struct {
	Name       string               `json:"name"`
	Stats      controller.Stats     `json:"stats"`
	Backends   []BackendInfo        `json:"backends"`
	Placement  map[string][]string  `json:"placement,omitempty"`
	TableLoads []balancer.TableLoad `json:"tableLoads,omitempty"`
}

// Server serves the admin API for one controller.
type Server struct {
	ctrl *controller.Controller
	mux  *http.ServeMux
	ln   net.Listener
}

// New builds the admin server.
func New(c *controller.Controller) *Server {
	s := &Server{ctrl: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("/vdbs", s.handleVDBs)
	s.mux.HandleFunc("/vdbs/", s.handleVDB)
	return s
}

// Handler returns the HTTP handler (for embedding in other servers).
func (s *Server) Handler() http.Handler { return s.mux }

// Listen starts serving on addr and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go func() { _ = http.Serve(ln, s.mux) }()
	return ln.Addr().String(), nil
}

// Close stops the listener.
func (s *Server) Close() {
	if s.ln != nil {
		_ = s.ln.Close()
	}
}

// handleVDBs lists the hosted virtual databases.
func (s *Server) handleVDBs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.ctrl.VirtualDatabases())
}

// handleVDB serves /vdbs/{name} (info), /vdbs/{name}/disable?backend=x,
// /vdbs/{name}/enable?backend=x and /vdbs/{name}/checkpoint?name=cp.
func (s *Server) handleVDB(w http.ResponseWriter, r *http.Request) {
	rest := r.URL.Path[len("/vdbs/"):]
	name, action := rest, ""
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			name, action = rest[:i], rest[i+1:]
			break
		}
	}
	vdb, err := s.ctrl.VirtualDatabase(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	switch action {
	case "":
		writeJSON(w, vdbInfo(vdb))
	case "disable":
		b := r.URL.Query().Get("backend")
		vdb.DisableBackend(b)
		writeJSON(w, map[string]string{"disabled": b})
	case "enable":
		bName := r.URL.Query().Get("backend")
		b, err := vdb.Backend(bName)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		switch {
		case b.Enabled():
		case vdb.RecoveryLog() == nil:
			// Without a recovery log nothing records what the backend missed
			// while it was out, so there is no copy-to-exact procedure to
			// run; flipping the state back is all an operator can do, and
			// what the backend serves is theirs to vouch for.
			b.Enable()
		default:
			// The call the re-integration supervisor makes: restore, replay
			// the log, enable only once caught up.
			if err := vdb.RestoreBackend(bName, nil); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
		}
		writeJSON(w, map[string]string{"enabled": bName})
	case "checkpoint":
		cp := r.URL.Query().Get("name")
		if cp == "" {
			http.Error(w, "admin: checkpoint requires ?name=", http.StatusBadRequest)
			return
		}
		seq, err := vdb.Checkpoint(cp)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"checkpoint": cp, "seq": seq})
	case "addtablehost", "removetablehost":
		table := r.URL.Query().Get("table")
		bName := r.URL.Query().Get("backend")
		if table == "" || bName == "" {
			http.Error(w, "admin: placement moves require ?table=&backend=", http.StatusBadRequest)
			return
		}
		var err error
		if action == "addtablehost" {
			err = vdb.AddTableHost(table, bName)
		} else {
			err = vdb.RemoveTableHost(table, bName)
		}
		if err != nil {
			// Refused moves (last host, already hosted, no placement) are
			// client-resolvable conflicts, not server faults.
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, map[string]string{action: table, "backend": bName})
	default:
		http.Error(w, fmt.Sprintf("admin: unknown action %q", action), http.StatusNotFound)
	}
}

func vdbInfo(v *controller.VirtualDatabase) VDBInfo {
	info := VDBInfo{Name: v.Name(), Stats: v.StatsSnapshot()}
	for _, b := range v.Backends() {
		info.Backends = append(info.Backends, BackendInfo{
			Name:     b.Name(),
			State:    b.State().String(),
			Weight:   b.Weight(),
			Pending:  b.Pending(),
			Ops:      b.Ops(),
			Failures: b.Failures(),
		})
	}
	if tables := v.PlacementTables(); len(tables) > 0 {
		info.Placement = make(map[string][]string, len(tables))
		for _, t := range tables {
			info.Placement[t] = v.Replication().Hosts(t)
		}
		info.TableLoads = v.LoadStats().Snapshot(false)
	}
	return info
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
