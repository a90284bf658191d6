package node

import (
	"slices"

	"pran/internal/cluster"
	"pran/internal/controller"
	"pran/internal/ctrlproto"
	"pran/internal/frame"
)

// Cell ownership is one state machine per cell; apply is its only mutator.
// A cell is idle or has one command in flight, which only its ack moves on:
// RemoveCell → ack → MigrateState (when warm state exists) → ack →
// AssignCell → ack. A failure abandons the step; the next round re-drives.

// cellPhase is where a cell stands; outside idle it names the command in
// flight.
type cellPhase uint8

const (
	idle cellPhase = iota
	removing
	restoring
	assigning
)

// none is the owner of a cell no agent serves.
const none cluster.ServerID = -1

// cellOwner is one cell's ownership state.
type cellOwner struct {
	owner cluster.ServerID // confirmed host, or none; none while restoring or assigning
	phase cellPhase
	peer  cluster.ServerID // where the command in flight went
	seq   uint32
	// strays declared the cell on connect while another agent owned it or
	// it was moving elsewhere (a partitioned host back with cells that
	// failed over); each is removed in turn, and what it ships is dropped.
	strays []cluster.ServerID
	warm   []byte            // the freshest accepted HARQ snapshot; replaced, never written
	spec   *frame.CellConfig // nil for a cell the controller does not manage
}

// eventKind names what happened to the controller.
type eventKind uint8

const (
	evPlace      eventKind = iota // a round's placement: want
	evExpire                      // agent's lease lapsed; want is the failover placement
	evOwned                       // session link of agent declared cells
	evDisconnect                  // session link of agent ended
	evAck                         // agent acked seq
	evFail                        // seq failed at agent: ErrorMsg, eviction or send error
	evState                       // agent shipped state for cell
)

type event struct {
	kind  eventKind
	agent cluster.ServerID
	link  *ctrlproto.Agent
	want  controller.Placement
	cells []uint16
	seq   uint32
	cell  frame.CellID
	state []byte
}

// command is a cell command for link's agent.
type command struct {
	link *ctrlproto.Agent
	msg  ctrlproto.Message
}

// ownership is the controller's record of who serves which cell. It does
// no IO and reads no clock.
type ownership struct {
	cells map[frame.CellID]*cellOwner
	ids   []frame.CellID // the keys of cells, sorted, so commands come out in a fixed order
	// want is the latest placement; the caller's lock covers both it and
	// apply, so it may be the controller's own map.
	want      controller.Placement
	warmBytes int
	// links are the sessions that declared their agent's cells, until they
	// end or the lease lapses; only agents with one are commanded.
	links    map[cluster.ServerID]*ctrlproto.Agent
	inflight map[uint32]frame.CellID // seq → cell
	seq      uint32
}

func newOwnership(cells []frame.CellConfig) *ownership {
	o := &ownership{
		cells:    make(map[frame.CellID]*cellOwner, len(cells)),
		links:    make(map[cluster.ServerID]*ctrlproto.Agent),
		inflight: make(map[uint32]frame.CellID),
	}
	for i := range cells {
		o.cell(cells[i].ID).spec = &cells[i]
	}
	return o
}

// cell returns c's state, adding it if new (a declared, unmanaged cell).
func (o *ownership) cell(c frame.CellID) *cellOwner {
	st, ok := o.cells[c]
	if !ok {
		st = &cellOwner{owner: none}
		o.cells[c] = st
		i, _ := slices.BinarySearch(o.ids, c)
		o.ids = slices.Insert(o.ids, i, c)
	}
	return st
}

// apply advances the machine by one event and returns the commands to send.
func (o *ownership) apply(e event) []command {
	switch e.kind {
	case evPlace:
		o.want = e.want
	case evExpire:
		o.detach(e.agent, true)
		o.want = e.want
	case evDisconnect:
		if o.links[e.agent] == e.link { // else a newer session already declared
			o.detach(e.agent, false)
		}
		return nil
	case evOwned:
		if o.links[e.agent] == e.link {
			return nil // a session declares once
		}
		o.detach(e.agent, false) // what was in flight went to the old session
		o.links[e.agent] = e.link
		o.reconcile(e.agent, e.cells)
	case evAck, evFail:
		c, ok := o.inflight[e.seq]
		if !ok || o.cells[c].peer != e.agent {
			return nil // stale: the step was abandoned
		}
		st := o.cells[c]
		delete(o.inflight, e.seq)
		ph := st.phase
		st.phase = idle
		if e.kind == evFail {
			return nil // a remove keeps its owner or stray; a restore or assign has none
		}
		switch ph {
		case removing:
			if st.peer == st.owner {
				st.owner = none
			} else {
				st.strays = slices.DeleteFunc(st.strays, func(s cluster.ServerID) bool { return s == st.peer })
			}
		case restoring:
			if dst, ok := o.want[c]; ok && dst == st.peer {
				return []command{o.start(c, st, assigning, dst)}
			}
		case assigning:
			st.owner = st.peer
		}
		return o.drive(c, st, nil)
	case evState:
		// Only the owner's state is the cell's, including the final state
		// a host ships as it is removed; a stray's is dropped.
		if st, ok := o.cells[e.cell]; ok && st.owner == e.agent {
			o.warmBytes += len(e.state) - len(st.warm)
			st.warm = e.state
		}
		return nil
	}
	var cmds []command
	for _, c := range o.ids {
		cmds = o.drive(c, o.cells[c], cmds)
	}
	return cmds
}

// detach abandons agent's steps in flight and ends its session; an expired
// agent also stops owning cells and being a stray.
func (o *ownership) detach(agent cluster.ServerID, expired bool) {
	for seq, c := range o.inflight {
		if st := o.cells[c]; st.peer == agent {
			delete(o.inflight, seq)
			st.phase = idle
		}
	}
	if expired {
		for _, st := range o.cells {
			if st.owner == agent {
				st.owner = none
			}
			st.strays = slices.DeleteFunc(st.strays, func(s cluster.ServerID) bool { return s == agent })
		}
	}
	delete(o.links, agent)
}

// reconcile takes a new session's declaration: agent's cells it still
// serves stay confirmed, the ones it lost (a restart) lose their owner,
// and any other cell it serves makes it a stray.
func (o *ownership) reconcile(agent cluster.ServerID, cells []uint16) {
	serves := make(map[frame.CellID]bool, len(cells))
	for _, c := range cells {
		serves[frame.CellID(c)] = true
		if st := o.cell(frame.CellID(c)); st.owner != agent && !slices.Contains(st.strays, agent) {
			st.strays = append(st.strays, agent)
		}
	}
	for c, st := range o.cells {
		if st.owner == agent && !serves[c] {
			st.owner = none
		}
	}
}

// drive appends an idle cell's next command: removing a stray, removing an
// owner the placement moved it from, restoring, assigning. Agents without
// a session wait.
func (o *ownership) drive(c frame.CellID, st *cellOwner, cmds []command) []command {
	if st.phase != idle {
		return cmds
	}
	for _, s := range st.strays {
		if o.links[s] != nil {
			return append(cmds, o.start(c, st, removing, s))
		}
	}
	dst, placed := o.want[c]
	switch {
	case st.owner != none:
		if (!placed || dst != st.owner) && o.links[st.owner] != nil {
			cmds = append(cmds, o.start(c, st, removing, st.owner))
		}
	case !placed || st.spec == nil || o.links[dst] == nil:
	case len(st.warm) > 0:
		cmds = append(cmds, o.start(c, st, restoring, dst))
	default:
		cmds = append(cmds, o.start(c, st, assigning, dst))
	}
	return cmds
}

// start puts op to agent in flight for c.
func (o *ownership) start(c frame.CellID, st *cellOwner, op cellPhase, agent cluster.ServerID) command {
	o.seq++
	st.phase, st.peer, st.seq = op, agent, o.seq
	o.inflight[o.seq] = c
	var m ctrlproto.Message = &ctrlproto.RemoveCell{Seq: o.seq, Cell: uint16(c)}
	switch s := st.spec; op {
	case restoring:
		m = &ctrlproto.MigrateState{Seq: o.seq, Cell: uint16(c), State: st.warm}
	case assigning:
		m = &ctrlproto.AssignCell{Seq: o.seq, Cell: uint16(c), PCI: s.PCI, PRB: uint16(s.Bandwidth.PRB()), Antennas: uint8(s.Antennas)}
	}
	return command{o.links[agent], m}
}

// applied is the idle cells with an owner.
func (o *ownership) applied() controller.Placement {
	p := make(controller.Placement)
	for c, st := range o.cells {
		if st.phase == idle && st.owner != none {
			p[c] = st.owner
		}
	}
	return p
}
