package fabric

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// ChaosPlan configures the simulated network's seed-deterministic
// message-level fault injection. Probabilities are per-mille per
// message, drawn from a counter-based splitmix64 stream (the same
// construction as internal/fault): each link direction owns its own
// stream keyed by (Seed, link, direction), so the n-th message sent on
// a link always suffers the same fate regardless of goroutine
// interleaving across links. The zero plan injects nothing.
//
// Partitions and crashes are scripted explicitly (Partition, Heal,
// Crash) rather than drawn, so chaos tests can stage exact failure
// scenarios around specific sweep moments.
type ChaosPlan struct {
	Seed          int64
	DropPerMille  int           // message silently lost
	DupPerMille   int           // message delivered twice
	DelayPerMille int           // message held for up to DelayMax
	DelayMax      time.Duration // bound on one injected delay (default 5ms)
}

func (p ChaosPlan) delayMax() time.Duration {
	if p.DelayMax <= 0 {
		return 5 * time.Millisecond
	}
	return p.DelayMax
}

// Validate reports whether the plan is runnable.
func (p ChaosPlan) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"DropPerMille", p.DropPerMille},
		{"DupPerMille", p.DupPerMille},
		{"DelayPerMille", p.DelayPerMille},
	} {
		if f.v < 0 || f.v > 1000 {
			return fmt.Errorf("fabric: chaos %s %d outside [0,1000]", f.name, f.v)
		}
	}
	return nil
}

// chaosStream is one direction's deterministic fault stream.
type chaosStream struct {
	seed  uint64
	draws uint64
}

// fnv1a folds a link label into the stream seed.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func newChaosStream(seed int64, label string) *chaosStream {
	return &chaosStream{seed: uint64(seed) ^ fnv1a(label)}
}

// roll advances the splitmix64 counter stream one step.
func (c *chaosStream) roll() uint64 {
	c.draws++
	z := c.seed + c.draws*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// hit draws one decision; a zero probability consumes no draw, so
// disabling one fault class does not shift the stream of the others.
func (c *chaosStream) hit(perMille int) bool {
	if perMille <= 0 {
		return false
	}
	return c.roll()%1000 < uint64(perMille)
}

// Net is the in-memory simulated network: one coordinator listener and
// any number of named worker links, all in one process, with the
// ChaosPlan applied to every message. It exists so the entire failure
// matrix — drop, duplication, delay, partition, crash, restart — runs
// hermetically in a unit test with no sockets and no timing deps
// beyond the (bounded) injected delays.
type Net struct {
	mu     sync.Mutex
	plan   ChaosPlan
	accept chan *simConn
	links  map[string]*simLink
	closed bool
}

// simLink is one worker's bidirectional connection.
type simLink struct {
	name        string
	partitioned bool
	worker      *simConn // the worker's end
	coord       *simConn // the coordinator's end
}

// NewNet creates a simulated network under the given chaos plan.
func NewNet(plan ChaosPlan) (*Net, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Net{
		plan:   plan,
		accept: make(chan *simConn, 64),
		links:  make(map[string]*simLink),
	}, nil
}

// inboxCap bounds one direction's in-flight queue. Large enough that a
// healthy test never fills it; a full inbox drops like a congested
// switch.
const inboxCap = 4096

// simConn is one end of a link.
type simConn struct {
	net    *Net
	link   *simLink
	remote string
	inbox  chan Msg
	stream *chaosStream
	closed chan struct{}
	once   sync.Once
	// abrupt marks a crash-style close: queued messages are discarded
	// instead of drained, like a peer whose host died mid-stream.
	abrupt bool
}

func (c *simConn) peer() *simConn {
	if c == c.link.worker {
		return c.link.coord
	}
	return c.link.worker
}

// Send applies the chaos plan and delivers to the peer's inbox. A
// dropped or partitioned message returns nil — the sender cannot tell,
// exactly like UDP under a black-holed route (TCP's reliability lives
// above this layer in the coordinator's retry machinery).
func (c *simConn) Send(m Msg) error {
	select {
	case <-c.closed:
		return fmt.Errorf("fabric: simnet %s: connection closed", c.link.name)
	default:
	}
	m.V = ProtoV1
	c.net.mu.Lock()
	partitioned := c.link.partitioned
	drop := c.stream.hit(c.net.plan.DropPerMille)
	dup := c.stream.hit(c.net.plan.DupPerMille)
	delay := c.stream.hit(c.net.plan.DelayPerMille)
	var hold time.Duration
	if delay {
		hold = time.Duration(c.stream.roll() % uint64(c.net.plan.delayMax()))
	}
	c.net.mu.Unlock()
	if partitioned || drop {
		return nil
	}
	peer := c.peer()
	deliver := func() { peer.put(m) }
	if delay {
		// Harness-level chaos timing: the delay reorders harness
		// messages and never touches simulated state.
		time.AfterFunc(hold, func() { //simlint:allow wallclock
			deliver()
			if dup {
				deliver()
			}
		})
		return nil
	}
	deliver()
	if dup {
		deliver()
	}
	return nil
}

// put enqueues one delivery, dropping on a full inbox or a closed peer.
func (c *simConn) put(m Msg) {
	select {
	case <-c.closed:
	case c.inbox <- m:
	default: // congested: drop, the retry layer recovers
	}
}

// Recv returns the next delivered message. A graceful close drains the
// queue first (TCP FIN semantics); an abrupt crash discards it. The
// closed state is checked first on its own so a crash that happened
// before the call deterministically discards queued messages (a
// two-way select would pick a branch at random when both are ready).
func (c *simConn) Recv() (Msg, error) {
	for {
		select {
		case <-c.closed:
			if !c.abrupt {
				select {
				case m := <-c.inbox:
					return m, nil
				default:
				}
			}
			return Msg{}, io.EOF
		default:
		}
		select {
		case <-c.closed:
			// Loop so the abrupt/graceful distinction above decides.
		case m := <-c.inbox:
			return m, nil
		}
	}
}

func (c *simConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// crash closes abruptly. abrupt is only ever written inside the close
// once, before the channel closes, so every reader that observed
// c.closed sees it race-free; crashing an already-closed conn is a
// no-op (it died gracefully first).
func (c *simConn) crash() {
	c.once.Do(func() {
		c.abrupt = true
		close(c.closed)
	})
}

func (c *simConn) RemoteName() string { return c.remote }

// ErrNetClosed is returned by Dial once the coordinator's listener has
// closed, which a coordinator does when it drains the fleet.
var ErrNetClosed = errors.New("fabric: simnet closed")

// Dial connects a named worker to the coordinator's listener. Redialing
// an existing name (a restarted worker) severs the stale link first.
func (n *Net) Dial(name string) (Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrNetClosed
	}
	if old := n.links[name]; old != nil {
		old.worker.crash()
		old.coord.crash()
	}
	// Each conn's stream governs what it sends: the worker end draws
	// from the worker-to-coordinator stream and vice versa.
	l := &simLink{name: name}
	l.worker = &simConn{net: n, link: l, remote: "coordinator",
		inbox: make(chan Msg, inboxCap), closed: make(chan struct{}),
		stream: newChaosStream(n.plan.Seed, name+"/w2c")}
	l.coord = &simConn{net: n, link: l, remote: name,
		inbox: make(chan Msg, inboxCap), closed: make(chan struct{}),
		stream: newChaosStream(n.plan.Seed, name+"/c2w")}
	n.links[name] = l
	n.mu.Unlock()
	select {
	case n.accept <- l.coord:
	default:
		l.worker.crash()
		l.coord.crash()
		return nil, fmt.Errorf("fabric: simnet accept queue full")
	}
	return l.worker, nil
}

// Partition black-holes the named link in both directions (the conn
// stays "up": sends vanish, nothing arrives) until Heal.
func (n *Net) Partition(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l := n.links[name]; l != nil {
		l.partitioned = true
	}
}

// Heal reconnects a partitioned link.
func (n *Net) Heal(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l := n.links[name]; l != nil {
		l.partitioned = false
	}
}

// Crash abruptly severs the named link, as if the worker's host died:
// both ends fail immediately and queued messages are lost.
func (n *Net) Crash(name string) {
	n.mu.Lock()
	l := n.links[name]
	n.mu.Unlock()
	if l != nil {
		l.worker.crash()
		l.coord.crash()
	}
}

// simListener is the coordinator's accept queue.
type simListener struct{ net *Net }

// Listener returns the coordinator-side listener of this network.
func (n *Net) Listener() Listener { return &simListener{net: n} }

func (s *simListener) Accept() (Conn, error) {
	c, ok := <-s.net.accept
	if !ok {
		return nil, io.EOF
	}
	return c, nil
}

func (s *simListener) Close() error {
	s.net.mu.Lock()
	defer s.net.mu.Unlock()
	if !s.net.closed {
		s.net.closed = true
		close(s.net.accept)
	}
	return nil
}

func (s *simListener) Addr() string { return "simnet" }
