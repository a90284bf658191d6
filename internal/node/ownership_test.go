package node

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"testing"
	"time"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/ctrlproto"
	"pran/internal/frame"
)

// The ownership checker drives the controller's state machine against a
// model of two agents, A and B, serving three cells over FIFO links, and
// explores every interleaving of up to checkBudget events by depth-first
// search with state hashing. The events are placement changes (one
// placement sheds a cell), the delivery of the head message of any link,
// an AssignCell refused, a round of state reports, a cut of A's link that
// loses both its queues, the controller's disconnect callback for it
// (which may come after A's next session has declared its cells), a
// reconnect whose CellOwned declares what A still serves, A's lease expiry
// (the controller closes A's link and fails its cells over to B), and a
// duplicate delivery of the head of either of A's queues; the rarer ones
// are capped per path (see allowance). Agent state is a token: a report or
// a removal ships a new one, and a token is legit when the instance that
// produced it is the cell's latest assignment.

const (
	modelA      cluster.ServerID = 1
	modelB      cluster.ServerID = 2
	modelCells                   = 3
	checkBudget                  = 12
	maxReports                   = 1
	maxPlaces                    = 3
)

// modelWants are the placements rounds choose from: the first is served at
// the start, the second moves cell 0 from A to B and sheds cell 2, the
// third moves cell 1 from A to B and cell 2 from B to A.
var modelWants = []controller.Placement{
	{0: modelA, 1: modelA, 2: modelB},
	{0: modelB, 1: modelA},
	{0: modelA, 1: modelB, 2: modelA},
}

// failoverWant is what the controller re-places when A's lease expires:
// A's cells on B.
func failoverWant(want controller.Placement) controller.Placement {
	out := maps.Clone(want)
	for c, s := range out {
		if s == modelA {
			out[c] = modelB
		}
	}
	return out
}

// serving is one agent's instance of a cell.
type serving struct {
	on    bool
	tok   int  // current state token, 0 for none
	legit bool // no other agent has begun serving the cell since
}

// modelAgent is one agent as the checker models it.
type modelAgent struct {
	cells  [modelCells]serving
	parked [modelCells]int // state held for a cell not served yet
}

// wireCmd is a cell command as the model's agents receive it.
type wireCmd struct {
	op    cellPhase
	cell  frame.CellID
	seq   uint32
	state []byte
}

// unpack reads a cell command off the message apply built.
func unpack(c command) wireCmd {
	switch m := c.msg.(type) {
	case *ctrlproto.RemoveCell:
		return wireCmd{removing, frame.CellID(m.Cell), m.Seq, nil}
	case *ctrlproto.MigrateState:
		return wireCmd{restoring, frame.CellID(m.Cell), m.Seq, m.State}
	case *ctrlproto.AssignCell:
		return wireCmd{assigning, frame.CellID(m.Cell), m.Seq, nil}
	}
	panic(fmt.Sprintf("not a cell command: %v", c.msg.Type()))
}

// upMsg is an agent → controller message: the event it delivers, and for
// an ack the cell whose removal it acknowledges (−1 otherwise).
type upMsg struct {
	ev       event
	removeOf int
}

// world is one state of the model.
type world struct {
	o       *ownership
	ownO    bool         // o is this world's own, not shared with its parent
	down    [2][]wireCmd // controller → A, B
	up      [2][]upMsg   // A, B → controller
	agents  [2]modelAgent
	linkUp  bool // A's link (B's never fails)
	expired bool // A's lease lapsed and it has not reconnected since
	session int  // A's current session, an index into sessions
	// unseen is the session whose end the controller has not been told
	// of yet, or −1.
	unseen int
	// tokLegit records, per token, whether its producer was legit.
	tokLegit []bool
	// acked are the RemoveCells whose ack reached the controller; a
	// duplicate of one still queued is not unacked.
	acked []uint32
	// began is, per cell, the warm token when its current move began.
	began      [modelCells]int
	wantIdx    int
	used       int
	places     int  // placement changes so far
	reports    int  // report events so far
	refused    bool // an agent has refused an AssignCell
	duped      bool // a message on A's link has been delivered twice
	cutOnce    bool // A's link has been cut once
	expiredAny bool // A's lease has lapsed once
}

// modelLinks are the agents' sessions: B keeps its first, A starts a new
// one on each reconnect.
var modelLinks = [2][3]*ctrlproto.Agent{
	{{ID: 1}, {ID: 1}, {ID: 1}},
	{{ID: 2}, {ID: 2}, {ID: 2}},
}

var modelSeed = maphash.MakeSeed()

// checker holds what is shared by every explored state.
type checker struct {
	// visited holds, per state key, the allowances it was explored with.
	visited map[uint64][]allowance
	states  int
	// scratch for key
	seqs []uint32
	toks []int
	buf  []byte
}

func agentIdx(id cluster.ServerID) int { return int(id) - 1 }

func tokBytes(tok int) []byte { return binary.BigEndian.AppendUint16(nil, uint16(tok)) }

func bytesTok(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	return int(binary.BigEndian.Uint16(b))
}

// clone copies w for one move. Queues and append-only slices are shared
// clipped, so an append in either copy reallocates; the machine is shared
// until control first changes it.
func (w *world) clone() *world {
	c := *w
	c.ownO = false
	for i := range w.down {
		c.down[i] = slices.Clip(w.down[i])
		c.up[i] = slices.Clip(w.up[i])
	}
	c.tokLegit = slices.Clip(w.tokLegit)
	c.acked = slices.Clip(w.acked)
	return &c
}

// ownMachine gives w a private copy of the machine before it changes.
func (w *world) ownMachine() {
	if w.ownO {
		return
	}
	o := *w.o
	o.cells = make(map[frame.CellID]*cellOwner, len(w.o.cells))
	for id, st := range w.o.cells {
		cp := *st
		cp.strays = slices.Clone(st.strays)
		o.cells[id] = &cp
	}
	o.ids = slices.Clone(w.o.ids)
	o.links = maps.Clone(w.o.links)
	o.inflight = maps.Clone(w.o.inflight)
	w.o, w.ownO = &o, true
}

// newTok mints a state token produced by an instance of the given legitimacy.
func (w *world) newTok(legit bool) int {
	w.tokLegit = append(w.tokLegit, legit)
	return len(w.tokLegit) - 1
}

// control applies one event to the machine and queues the commands it
// returns, recording where each move began.
func (w *world) control(e event) error {
	w.ownMachine()
	var before [modelCells]cellPhase
	for c := range before {
		before[c] = w.o.cells[frame.CellID(c)].phase
	}
	for _, out := range w.o.apply(e) {
		cmd := unpack(out)
		c := int(cmd.cell)
		switch {
		case cmd.op == restoring:
			w.began[c] = bytesTok(cmd.state)
		case cmd.op == assigning && before[c] == idle:
			w.began[c] = bytesTok(w.o.cells[cmd.cell].warm)
		}
		if i := agentIdx(cluster.ServerID(out.link.ID)); i != 0 || (w.linkUp && out.link == modelLinks[0][w.session]) {
			w.down[i] = append(w.down[i], cmd)
		} // else lost with an ended session, until its disconnect abandons it
	}
	return w.check()
}

// deliverDown hands agent i the head of its command queue; pop is false
// for a duplicate delivery.
func (w *world) deliverDown(i int, refuse, pop bool) error {
	cmd := w.down[i][0]
	if pop {
		w.down[i] = w.down[i][1:]
	}
	ag := &w.agents[i]
	id := cluster.ServerID(i + 1)
	c := int(cmd.cell)
	reply := upMsg{ev: event{kind: evAck, agent: id, seq: cmd.seq}, removeOf: -1}
	switch cmd.op {
	case removing:
		if s := ag.cells[c]; s.on {
			tok := w.newTok(s.legit)
			w.up[i] = append(w.up[i], upMsg{ev: event{kind: evState, agent: id, cell: cmd.cell, state: tokBytes(tok)}, removeOf: -1})
			ag.cells[c] = serving{}
		}
		reply.removeOf = c
	case restoring:
		if ag.cells[c].on {
			return fmt.Errorf("MigrateState for cell %d sent to agent %d, which serves it", c, id)
		}
		ag.parked[c] = bytesTok(cmd.state)
	case assigning:
		if refuse {
			reply.ev.kind = evFail
			break
		}
		if !ag.cells[c].on {
			if ag.parked[c] != w.began[c] {
				return fmt.Errorf("agent %d began serving cell %d holding state %d, not the warm state %d its move began with", id, c, ag.parked[c], w.began[c])
			}
			for j := range w.agents {
				w.agents[j].cells[c].legit = false
			}
			ag.cells[c] = serving{on: true, tok: ag.parked[c], legit: true}
			ag.parked[c] = 0
		}
	}
	w.up[i] = append(w.up[i], reply)
	return w.check()
}

// deliverUp hands the controller the head of agent i's queue.
func (w *world) deliverUp(i int, pop bool) error {
	m := w.up[i][0]
	if pop {
		w.up[i] = w.up[i][1:]
	}
	if m.removeOf >= 0 && !slices.Contains(w.acked, m.ev.seq) {
		w.acked = append(w.acked, m.ev.seq)
	}
	return w.control(m.ev)
}

// report ships the state of every cell agent i serves.
func (w *world) report(i int) {
	ag := &w.agents[i]
	for c := range ag.cells {
		if s := &ag.cells[c]; s.on {
			s.tok = w.newTok(s.legit)
			w.up[i] = append(w.up[i], upMsg{ev: event{kind: evState, agent: cluster.ServerID(i + 1), cell: frame.CellID(c), state: tokBytes(s.tok)}, removeOf: -1})
		}
	}
}

// cut loses both of A's queues and marks its link down; the controller
// hears of it later.
func (w *world) cut() {
	if w.linkUp {
		w.unseen = w.session
	}
	w.down[0], w.up[0] = nil, nil
	w.linkUp = false
}

// disconnected delivers the controller's disconnect callback for A's ended
// session.
func (w *world) disconnected() error {
	link := modelLinks[0][w.unseen]
	w.unseen = -1
	return w.control(event{kind: evDisconnect, agent: modelA, link: link})
}

// reconnect opens a new session for A, which declares what it serves.
func (w *world) reconnect() {
	w.session++
	w.linkUp, w.expired = true, false
	var cells []uint16
	for c, s := range w.agents[0].cells {
		if s.on {
			cells = append(cells, uint16(c))
		}
	}
	w.up[0] = append(w.up[0], upMsg{ev: event{kind: evOwned, agent: modelA, link: modelLinks[0][w.session], cells: cells}, removeOf: -1})
}

// live reports whether agent i counts: A does not between its lease
// expiry and its reconnect.
func (w *world) live(i int) bool { return i != 0 || !w.expired }

// check asserts the invariants that hold in every state.
func (w *world) check() error {
	var owners [modelCells]uint8 // bit i: agent i owns the cell or is its assign target
	for c := range owners {
		st := w.o.cells[frame.CellID(c)]
		if st.owner != none && w.live(agentIdx(st.owner)) {
			owners[c] |= 1 << agentIdx(st.owner)
		}
		if (st.phase == restoring || st.phase == assigning) && w.live(agentIdx(st.peer)) {
			owners[c] |= 1 << agentIdx(st.peer)
		}
		if tok := bytesTok(st.warm); tok != 0 && !w.tokLegit[tok] {
			return fmt.Errorf("cell %d warm state %d was produced by an instance that no longer served it legitimately", c, tok)
		}
	}
	for i := range w.down {
		for _, cmd := range w.down[i] {
			if cmd.op != assigning || !w.live(i) {
				continue
			}
			c := int(cmd.cell)
			owners[c] |= 1 << i
			if j := 1 - i; w.live(j) && w.removeUnacked(j, c) {
				return fmt.Errorf("AssignCell(%d) to agent %d in flight while RemoveCell(%d) to agent %d is unacked", c, i+1, c, j+1)
			}
		}
	}
	for c, o := range owners {
		if o == 3 {
			return fmt.Errorf("cell %d has both agents as owner or assign target", c)
		}
	}
	return nil
}

// removeUnacked reports whether a RemoveCell(c) to agent j is queued or
// delivered with its ack not yet at the controller.
func (w *world) removeUnacked(j, c int) bool {
	for _, cmd := range w.down[j] {
		if cmd.op == removing && int(cmd.cell) == c && !slices.Contains(w.acked, cmd.seq) {
			return true
		}
	}
	for _, m := range w.up[j] {
		if m.removeOf == c && !slices.Contains(w.acked, m.ev.seq) {
			return true
		}
	}
	return false
}

// converge reconnects A if its link is down, then alternates draining every
// queue with a placement round until a round sends nothing, and checks the
// end state.
func (w *world) converge() error {
	if w.unseen >= 0 {
		if err := w.disconnected(); err != nil {
			return err
		}
	}
	if !w.linkUp {
		w.reconnect()
	}
	for round := 0; ; round++ {
		if round == 20 {
			return fmt.Errorf("no convergence after %d rounds", round)
		}
		for busy := true; busy; {
			busy = false
			for i := range w.down {
				if len(w.down[i]) > 0 {
					if err := w.deliverDown(i, false, true); err != nil {
						return err
					}
					busy = true
				}
				if len(w.up[i]) > 0 {
					if err := w.deliverUp(i, true); err != nil {
						return err
					}
					busy = true
				}
			}
		}
		if err := w.control(event{kind: evPlace, want: modelWants[w.wantIdx]}); err != nil {
			return err
		}
		if len(w.down[0])+len(w.down[1]) == 0 {
			break
		}
	}
	want := modelWants[w.wantIdx]
	served := controller.Placement{}
	for c := 0; c < modelCells; c++ {
		for i, ag := range w.agents {
			if !ag.cells[c].on {
				continue
			}
			if _, dup := served[frame.CellID(c)]; dup {
				return fmt.Errorf("cell %d served by both agents after convergence", c)
			}
			served[frame.CellID(c)] = cluster.ServerID(i + 1)
		}
		if st := w.o.cells[frame.CellID(c)]; st.phase != idle || len(st.strays) > 0 {
			return fmt.Errorf("cell %d not idle after convergence: %+v", c, *st)
		}
	}
	if !maps.Equal(served, want) {
		return fmt.Errorf("agents serve %v, placement is %v", served, want)
	}
	if applied := w.o.applied(); !maps.Equal(applied, served) {
		return fmt.Errorf("applied %v, agents serve %v", applied, served)
	}
	return nil
}

// key hashes the state canonically, leaving out what is left of each
// event allowance (see allowance): sequence numbers and tokens are
// renumbered in order of appearance, so states that differ only in fresh
// numbers meet.
func (w *world) key(k *checker) uint64 {
	seqs, toks, b := k.seqs[:0], k.toks[:0], k.buf[:0]
	defer func() { k.seqs, k.toks, k.buf = seqs, toks, b }()
	seq := func(s uint32) {
		v := slices.Index(seqs, s)
		if v < 0 {
			v = len(seqs)
			seqs = append(seqs, s)
		}
		b = append(b, byte(v))
	}
	tok := func(t int) {
		if t == 0 {
			b = append(b, 0)
			return
		}
		v := slices.Index(toks, t)
		if v < 0 {
			v = len(toks)
			toks = append(toks, t)
		}
		b = append(b, byte(v+1))
		if w.tokLegit[t] {
			b = append(b, 1)
		} else {
			b = append(b, 2)
		}
	}
	agent := func(a cluster.ServerID) { b = append(b, byte(a+1)) }
	for c := 0; c < modelCells; c++ {
		st := w.o.cells[frame.CellID(c)]
		agent(st.owner)
		b = append(b, byte(st.phase))
		if st.phase != idle {
			agent(st.peer)
			seq(st.seq)
		}
		b = append(b, byte(len(st.strays)))
		for _, s := range st.strays {
			agent(s)
		}
		tok(bytesTok(st.warm))
		tok(w.began[c])
	}
	for i := range w.down {
		l, up := w.o.links[cluster.ServerID(i+1)]
		b = append(b, byte(slices.Index(modelLinks[i][:], l)+1), boolByte(up))
		for _, cmd := range w.down[i] {
			b = append(b, byte(cmd.op), byte(cmd.cell))
			seq(cmd.seq)
			tok(bytesTok(cmd.state))
		}
		b = append(b, 0xff)
		for _, m := range w.up[i] {
			b = append(b, byte(m.ev.kind), byte(m.ev.cell), byte(m.removeOf+1), byte(len(m.ev.cells)))
			seq(m.ev.seq)
			tok(bytesTok(m.ev.state))
			for _, c := range m.ev.cells {
				b = append(b, byte(c))
			}
		}
		b = append(b, 0xff)
		for c, s := range w.agents[i].cells {
			b = append(b, boolByte(s.on), boolByte(s.legit))
			tok(s.tok)
			tok(w.agents[i].parked[c])
		}
	}
	b = append(b, boolByte(w.linkUp), boolByte(w.expired), byte(w.wantIdx), byte(w.session), byte(w.unseen+1))
	return maphash.Bytes(modelSeed, b)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// moveKind is one kind of event the checker can take.
type moveKind uint8

const (
	mvPlace      moveKind = iota // arg: the want's index
	mvDeliver                    // arg: agent; its head command
	mvRefuse                     // arg: agent; its head AssignCell, refused
	mvDupDeliver                 // the head of A's commands, kept queued
	mvHear                       // arg: agent; the controller takes its head message
	mvDupHear                    // the head of A's messages, kept queued
	mvReport                     // arg: agent
	mvCut
	mvDisconnected
	mvReconnect
	mvExpire
)

// move is one event: a kind and its argument.
type move struct {
	kind moveKind
	arg  int
}

func (m move) String() string {
	agent := string(rune('A' + m.arg))
	switch m.kind {
	case mvPlace:
		return fmt.Sprintf("place %v", modelWants[m.arg])
	case mvDeliver:
		return "deliver the head command to " + agent
	case mvRefuse:
		return agent + " refuses its head AssignCell"
	case mvDupDeliver:
		return "duplicate the head command to A"
	case mvHear:
		return "deliver the head of " + agent + "'s messages"
	case mvDupHear:
		return "duplicate the head of A's messages"
	case mvReport:
		return agent + " reports"
	case mvCut:
		return "cut A's link"
	case mvDisconnected:
		return "A's disconnect reaches the controller"
	case mvReconnect:
		return "A reconnects"
	default:
		return "A's lease expires"
	}
}

// moves lists the events possible in w.
func (w *world) moves() []move {
	var out []move
	for idx := range modelWants {
		// A round that changes nothing is left to converge.
		if idx != w.wantIdx && w.places < maxPlaces {
			out = append(out, move{mvPlace, idx})
		}
	}
	for i := range w.down {
		if len(w.down[i]) > 0 {
			out = append(out, move{mvDeliver, i})
			if w.down[i][0].op == assigning && !w.refused {
				out = append(out, move{mvRefuse, i})
			}
			if i == 0 && !w.duped {
				out = append(out, move{mvDupDeliver, 0})
			}
		}
		if len(w.up[i]) > 0 {
			out = append(out, move{mvHear, i})
			if i == 0 && !w.duped {
				out = append(out, move{mvDupHear, 0})
			}
		}
		if w.reports < maxReports && (i == 1 || w.linkUp) {
			out = append(out, move{mvReport, i})
		}
	}
	if w.linkUp && !w.cutOnce {
		out = append(out, move{mvCut, 0})
	}
	if w.unseen >= 0 {
		out = append(out, move{mvDisconnected, 0})
	}
	if !w.linkUp {
		out = append(out, move{mvReconnect, 0})
	}
	if !w.expiredAny {
		out = append(out, move{mvExpire, 0})
	}
	return out
}

// do takes move m in w.
func (w *world) do(m move) error {
	switch m.kind {
	case mvPlace:
		w.places++
		w.wantIdx = m.arg
		return w.control(event{kind: evPlace, want: modelWants[m.arg]})
	case mvDeliver:
		return w.deliverDown(m.arg, false, true)
	case mvRefuse:
		w.refused = true
		return w.deliverDown(m.arg, true, true)
	case mvDupDeliver:
		w.duped = true
		return w.deliverDown(0, false, false)
	case mvHear:
		return w.deliverUp(m.arg, true)
	case mvDupHear:
		w.duped = true
		return w.deliverUp(0, false)
	case mvReport:
		w.reports++
		w.report(m.arg)
	case mvCut:
		w.cutOnce = true
		w.cut()
	case mvDisconnected:
		return w.disconnected()
	case mvReconnect:
		w.reconnect()
	case mvExpire:
		w.expiredAny, w.expired = true, true
		w.cut()
		return w.control(event{kind: evExpire, agent: modelA, want: failoverWant(modelWants[w.wantIdx])})
	}
	return w.check()
}

// allowance is what a state may still do: events, placement changes and
// reports left, and whether an AssignCell may still be refused, a message
// on A's link duplicated, A's link cut and A's lease lapse.
type allowance [7]int

func (w *world) allowance() allowance {
	once := func(done bool) int { return 1 - int(boolByte(done)) }
	return allowance{checkBudget - w.used, maxPlaces - w.places, maxReports - w.reports,
		once(w.refused), once(w.duped), once(w.cutOnce), once(w.expiredAny)}
}

// covers reports whether a allows everything b does.
func (a allowance) covers(b allowance) bool {
	for i := range a {
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

// explore is the depth-first search; it returns the first violation with
// the events that led to it. A state already explored with an allowance
// that covers this one is skipped: its futures are a subset.
func (k *checker) explore(w *world, trail []move) error {
	h, al := w.key(k), w.allowance()
	for _, seen := range k.visited[h] {
		if seen.covers(al) {
			return nil
		}
	}
	k.visited[h] = append(k.visited[h], al)
	k.states++
	if al[0] == 0 {
		if err := w.clone().converge(); err != nil {
			return fmt.Errorf("after %v: %w", trail, err)
		}
		return nil
	}
	for _, m := range w.moves() {
		x := w.clone()
		x.used++
		next := append(slices.Clip(trail), m)
		if err := x.do(m); err != nil {
			return fmt.Errorf("after %v: %w", next, err)
		}
		if err := k.explore(x, next); err != nil {
			return err
		}
	}
	return nil
}

// newCheckWorld builds the starting state: both agents connected, the
// first placement served, and one report from each agent warming the
// controller's cache.
func newCheckWorld(t *testing.T, k *checker) *world {
	t.Helper()
	w := &world{o: newOwnership(testCells(modelCells)), linkUp: true, unseen: -1, tokLegit: []bool{true}}
	for i := range w.up {
		w.up[i] = append(w.up[i], upMsg{ev: event{kind: evOwned, agent: cluster.ServerID(i + 1), link: modelLinks[i][0]}, removeOf: -1})
	}
	err := w.converge()
	for i := range w.agents {
		w.report(i)
	}
	if err == nil {
		err = w.converge()
	}
	if err != nil {
		t.Fatalf("start state: %v", err)
	}
	for c := range modelWants[0] {
		if len(w.o.cells[c].warm) == 0 {
			t.Fatalf("start state has no warm state for cell %d", c)
		}
	}
	return w
}

// TestOwnershipModelCheck explores every interleaving of up to checkBudget
// events and asserts, in every state:
//   - not counting an expired agent, at most one agent is a cell's owner or
//     its assign target (queued AssignCells included), and no AssignCell(c)
//     is queued to one agent while a RemoveCell(c) to another live agent is
//     unacked;
//   - an agent begins serving a cell only while holding the warm state the
//     controller had when the move began, and the warm cache only ever
//     holds state produced by the cell's legitimate instance;
//   - no MigrateState(c) reaches an agent serving c;
//
// and, once the budget is spent and the messages drain, that each placed
// cell is served by exactly its placed agent and a shed cell by none, that
// Applied equals what the agents serve, and that every cell is idle.
func TestOwnershipModelCheck(t *testing.T) {
	k := &checker{visited: map[uint64][]allowance{}}
	w := newCheckWorld(t, k)
	start := time.Now()
	if err := k.explore(w, nil); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d states (budget %d events, %d distinct) in %v", k.states, checkBudget, len(k.visited), time.Since(start))
}
