// Package netproto is the wire protocol between the C-JDBC driver and the
// controller (§2.3): length-prefixed binary frames over TCP, encoded and
// decoded by hand (codec.go). Result sets are fully serialized to the
// driver, which then browses them locally, exactly as the paper's hybrid
// type 3/4 driver does. The same protocol serves vertical scalability: a
// controller can be the client of another controller.
package netproto

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/controller"
	"cjdbc/internal/sqlval"
)

// handshakeTimeout bounds the connect exchange on both ends, so a peer that
// connects and says nothing does not hold a goroutine. A variable only so
// tests can shorten it.
var handshakeTimeout = 10 * time.Second

// Server exposes a controller's virtual databases over TCP.
type Server struct {
	ctrl *controller.Controller

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]bool
	closed   bool
	sessions sync.WaitGroup
}

// NewServer wraps a controller.
func NewServer(c *controller.Controller) *Server {
	return &Server{ctrl: c, conns: make(map[net.Conn]bool)}
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the
// bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("netproto: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.sessions.Add(1)
		go func() {
			defer s.sessions.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener, severs every active driver connection (their
// controller sessions roll back), and waits for the handlers to wind down.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.sessions.Wait()
}

// serveConn handles one driver connection: a connect handshake followed by
// a stream of statement executions. The controller session dies with the
// connection, rolling back any open transaction. A frame this end cannot
// decode ends the connection; the statement before it has been answered.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	w := newWire(conn)
	sess := s.handshake(conn, w)
	if sess == nil {
		return
	}
	defer sess.Close()
	// vec is the connection's parameter vector, refilled by every statement:
	// the controller copies whatever outlives the call. It is cleared after
	// each statement and kept only up to keptParams values.
	var vec []sqlval.Value
	for {
		typ, body, err := w.read()
		if err != nil {
			return // includes io.EOF: client gone, session cleanup above
		}
		switch typ {
		case framePing:
			w.begin(framePing)
		case frameExec:
			sql, params, err := decodeExec(string(body), vec)
			if err != nil {
				return
			}
			res, err := sess.Exec(sql, params)
			clear(params)
			if params != nil && cap(params) <= keptParams {
				vec = params
			}
			if err == nil {
				err = w.putResult(res)
			}
			if err != nil {
				w.putError(err)
			}
		default:
			return
		}
		if w.send() != nil {
			return
		}
	}
}

// handshake reads the connect frame and answers it, all within
// handshakeTimeout. It returns nil when the connection is to be dropped:
// the peer speaks another protocol or went silent (no answer), or the
// virtual database refused it (answered with an error frame).
func (s *Server) handshake(conn net.Conn, w *wire) *controller.Session {
	// A failed SetDeadline surfaces as the failed read or write it guards.
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	typ, body, err := w.read()
	if err != nil || typ != frameConnect {
		return nil
	}
	name, user, password, err := decodeConnect(string(body))
	if err != nil {
		return nil
	}
	var sess *controller.Session
	vdb, err := s.ctrl.VirtualDatabase(name)
	if err == nil {
		sess, err = vdb.NewSession(user, password)
	}
	w.begin(frameConnect)
	if err != nil {
		w.putError(err)
	}
	if w.send() != nil || conn.SetDeadline(time.Time{}) != nil {
		if sess != nil {
			sess.Close()
		}
		return nil
	}
	return sess
}

// Client is one driver connection to a controller. One request is in
// flight at a time; concurrent callers queue on mu.
type Client struct {
	conn net.Conn
	mu   sync.Mutex
	w    *wire
}

// Dial connects and authenticates against one controller.
func Dial(addr, vdb, user, password string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, w: newWire(conn)}
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout)) // as in Server.handshake
	c.w.putConnect(vdb, user, password)
	if _, err = c.call(frameConnect); err == nil {
		err = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// call sends the frame built in w.out and returns the body of the answer,
// which must be a frame of type want. An error frame comes back as the
// error it carries; a transport or protocol failure closes the connection,
// whose stream can no longer be trusted, and is reported as ConnLostError.
func (c *Client) call(want byte) (string, error) {
	if err := c.w.send(); err != nil {
		return "", c.lost(err)
	}
	typ, body, err := c.w.read()
	switch {
	case err != nil:
	case typ == want:
		return string(body), nil
	case typ == frameError:
		var remote error
		if remote, err = decodeError(string(body)); err == nil {
			return "", remote
		}
	default:
		err = protoErr("frame type %d in answer to type %d", typ, want)
	}
	return "", c.lost(err)
}

func (c *Client) lost(err error) error {
	c.conn.Close()
	return &ConnLostError{Cause: err}
}

// Exec runs one statement remotely, returning the fully materialized
// result. A transport or protocol error is reported as ErrConnLost wrapped
// around the cause, so the driver can fail over to another controller.
func (c *Client) Exec(sql string, params []sqlval.Value) (*backend.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.w.putExec(sql, params); err != nil {
		c.w.out = c.w.out[:c.w.start]
		return nil, err // nothing was sent: the connection is still good
	}
	body, err := c.call(frameResult)
	if err != nil {
		return nil, err
	}
	res, err := decodeResult(body)
	if err != nil {
		return nil, c.lost(err)
	}
	return res, nil
}

// Ping verifies the connection is alive.
func (c *Client) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.begin(framePing)
	_, err := c.call(framePing)
	return err
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ConnLostError marks transport-level failures eligible for controller
// failover (§2.3: the driver transparently fails over between controllers).
type ConnLostError struct{ Cause error }

// Error implements error.
func (e *ConnLostError) Error() string { return "netproto: connection lost: " + e.Cause.Error() }

// Unwrap exposes the cause.
func (e *ConnLostError) Unwrap() error { return e.Cause }

// IsConnLost reports whether err is a transport failure.
func IsConnLost(err error) bool {
	var cl *ConnLostError
	return errors.As(err, &cl) || errors.Is(err, io.EOF)
}
