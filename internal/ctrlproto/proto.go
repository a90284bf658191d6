// Package ctrlproto implements the PRAN control protocol: a compact binary
// protocol over TCP between the controller and the per-server data-plane
// agents. Agents register their capacity, stream load heartbeats every
// reporting interval, and receive cell assignment, removal and migration
// commands, each answered with an Ack or an ErrorMsg.
//
// Wire format: every message is a frame
//
//	uint32  payload length (big endian, ≤ MaxFrame)
//	uint8   message type
//	bytes   payload (fixed-layout fields, big endian)
//
// The protocol is deliberately version-tagged in Register so mixed fleets
// can be detected at connect time rather than mid-operation.
//
// Concurrency: message encode/decode functions are pure and safe for
// concurrent use. A Conn permits one reading goroutine at a time, while
// writes are internally serialized so any goroutine may send; the node
// layer follows that shape with a dedicated reader goroutine per
// connection. Server guards its connection registry with a mutex.
package ctrlproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Version is the protocol version agents must present.
const Version = 1

// MaxFrame bounds a frame payload; migration state dominates sizing.
const MaxFrame = 16 << 20

// Sentinel errors.
var (
	// ErrFrameTooLarge indicates a frame exceeding MaxFrame.
	ErrFrameTooLarge = errors.New("ctrlproto: frame too large")
	// ErrBadMessage indicates a malformed payload for the declared type.
	ErrBadMessage = errors.New("ctrlproto: malformed message")
	// ErrVersionMismatch indicates an incompatible protocol version.
	ErrVersionMismatch = errors.New("ctrlproto: version mismatch")
)

// MsgType enumerates protocol messages.
type MsgType uint8

// Protocol message types.
const (
	// TRegister (agent→controller) announces a server and its capacity.
	TRegister MsgType = iota + 1
	// TRegisterAck (controller→agent) confirms registration.
	TRegisterAck
	// THeartbeat (agent→controller) reports load.
	THeartbeat
	// TAssignCell (controller→agent) assigns a cell to the server.
	TAssignCell
	// TRemoveCell (controller→agent) removes a cell.
	TRemoveCell
	// TMigrateState (both directions) carries a cell's HARQ/soft state.
	TMigrateState
	_ // 7 and 8 were lifecycle commands no controller sent; their codes stay
	_ // retired so every later code keeps its value under Version 1.
	// TAck acknowledges a command by sequence number.
	TAck
	// TError reports a command failure by sequence number.
	TError
	// TCellLoad (agent→controller) reports one cell's compute demand.
	TCellLoad
	// TStatsRequest (controller→agent) asks for a telemetry snapshot.
	TStatsRequest
	// TStatsReport (agent→controller) answers with an encoded snapshot.
	TStatsReport
	// TCellOwned (agent→controller) declares the cells the agent currently
	// runs, sent after (re)registration so the controller can reconcile its
	// applied placement against reality after a reconnect.
	TCellOwned
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TRegister:
		return "register"
	case TRegisterAck:
		return "register-ack"
	case THeartbeat:
		return "heartbeat"
	case TAssignCell:
		return "assign-cell"
	case TRemoveCell:
		return "remove-cell"
	case TMigrateState:
		return "migrate-state"
	case TAck:
		return "ack"
	case TError:
		return "error"
	case TCellLoad:
		return "cell-load"
	case TStatsRequest:
		return "stats-request"
	case TStatsReport:
		return "stats-report"
	case TCellOwned:
		return "cell-owned"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Message is implemented by every protocol message.
type Message interface {
	// Type returns the wire type tag.
	Type() MsgType
	// MarshalBinary appends the payload encoding to dst.
	MarshalBinary(dst []byte) []byte
	// UnmarshalBinary parses the payload.
	UnmarshalBinary(src []byte) error
}

// Register announces an agent.
type Register struct {
	// ProtoVersion must equal Version.
	ProtoVersion uint16
	// ServerID is the agent's stable pool identity.
	ServerID uint32
	// Cores is the usable core count.
	Cores uint16
	// SpeedMilli is the speed factor ×1000 (1000 = reference core).
	SpeedMilli uint32
}

// Type implements Message.
func (*Register) Type() MsgType { return TRegister }

// MarshalBinary implements Message.
func (m *Register) MarshalBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, m.ProtoVersion)
	dst = binary.BigEndian.AppendUint32(dst, m.ServerID)
	dst = binary.BigEndian.AppendUint16(dst, m.Cores)
	dst = binary.BigEndian.AppendUint32(dst, m.SpeedMilli)
	return dst
}

// UnmarshalBinary implements Message.
func (m *Register) UnmarshalBinary(src []byte) error {
	if len(src) != 12 {
		return fmt.Errorf("register payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.ProtoVersion = binary.BigEndian.Uint16(src)
	m.ServerID = binary.BigEndian.Uint32(src[2:])
	m.Cores = binary.BigEndian.Uint16(src[6:])
	m.SpeedMilli = binary.BigEndian.Uint32(src[8:])
	return nil
}

// RegisterAck confirms registration.
type RegisterAck struct {
	// HeartbeatMillis is the reporting interval the controller wants.
	HeartbeatMillis uint32
}

// Type implements Message.
func (*RegisterAck) Type() MsgType { return TRegisterAck }

// MarshalBinary implements Message.
func (m *RegisterAck) MarshalBinary(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, m.HeartbeatMillis)
}

// UnmarshalBinary implements Message.
func (m *RegisterAck) UnmarshalBinary(src []byte) error {
	if len(src) != 4 {
		return fmt.Errorf("register-ack payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.HeartbeatMillis = binary.BigEndian.Uint32(src)
	return nil
}

// Heartbeat reports an agent's instantaneous load.
type Heartbeat struct {
	// ServerID identifies the reporter.
	ServerID uint32
	// TTI is the agent's current subframe counter.
	TTI uint64
	// UsedMilliCores is the compute in use, in 1/1000 reference cores.
	UsedMilliCores uint32
	// QueueLen is the number of queued tasks.
	QueueLen uint32
	// Misses and Completed are cumulative task counters.
	Misses, Completed uint64
}

// Type implements Message.
func (*Heartbeat) Type() MsgType { return THeartbeat }

// MarshalBinary implements Message.
func (m *Heartbeat) MarshalBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.ServerID)
	dst = binary.BigEndian.AppendUint64(dst, m.TTI)
	dst = binary.BigEndian.AppendUint32(dst, m.UsedMilliCores)
	dst = binary.BigEndian.AppendUint32(dst, m.QueueLen)
	dst = binary.BigEndian.AppendUint64(dst, m.Misses)
	dst = binary.BigEndian.AppendUint64(dst, m.Completed)
	return dst
}

// UnmarshalBinary implements Message.
func (m *Heartbeat) UnmarshalBinary(src []byte) error {
	if len(src) != 36 {
		return fmt.Errorf("heartbeat payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.ServerID = binary.BigEndian.Uint32(src)
	m.TTI = binary.BigEndian.Uint64(src[4:])
	m.UsedMilliCores = binary.BigEndian.Uint32(src[12:])
	m.QueueLen = binary.BigEndian.Uint32(src[16:])
	m.Misses = binary.BigEndian.Uint64(src[20:])
	m.Completed = binary.BigEndian.Uint64(src[28:])
	return nil
}

// AssignCell attaches a cell to the receiving server.
type AssignCell struct {
	// Seq is the command sequence number to acknowledge.
	Seq uint32
	// Cell is the PRAN cell ID; PCI its physical identity.
	Cell, PCI uint16
	// PRB is the cell bandwidth in resource blocks.
	PRB uint16
	// Antennas is the RRH antenna count.
	Antennas uint8
}

// Type implements Message.
func (*AssignCell) Type() MsgType { return TAssignCell }

// MarshalBinary implements Message.
func (m *AssignCell) MarshalBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = binary.BigEndian.AppendUint16(dst, m.Cell)
	dst = binary.BigEndian.AppendUint16(dst, m.PCI)
	dst = binary.BigEndian.AppendUint16(dst, m.PRB)
	dst = append(dst, m.Antennas)
	return dst
}

// UnmarshalBinary implements Message.
func (m *AssignCell) UnmarshalBinary(src []byte) error {
	if len(src) != 11 {
		return fmt.Errorf("assign-cell payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.Seq = binary.BigEndian.Uint32(src)
	m.Cell = binary.BigEndian.Uint16(src[4:])
	m.PCI = binary.BigEndian.Uint16(src[6:])
	m.PRB = binary.BigEndian.Uint16(src[8:])
	m.Antennas = src[10]
	return nil
}

// RemoveCell detaches a cell.
type RemoveCell struct {
	// Seq is the command sequence number.
	Seq uint32
	// Cell is the cell to remove.
	Cell uint16
}

// Type implements Message.
func (*RemoveCell) Type() MsgType { return TRemoveCell }

// MarshalBinary implements Message.
func (m *RemoveCell) MarshalBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = binary.BigEndian.AppendUint16(dst, m.Cell)
	return dst
}

// UnmarshalBinary implements Message.
func (m *RemoveCell) UnmarshalBinary(src []byte) error {
	if len(src) != 6 {
		return fmt.Errorf("remove-cell payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.Seq = binary.BigEndian.Uint32(src)
	m.Cell = binary.BigEndian.Uint16(src[4:])
	return nil
}

// MigrateState carries a cell's HARQ soft state during migration.
type MigrateState struct {
	// Seq is the command sequence number.
	Seq uint32
	// Cell is the cell whose state this is.
	Cell uint16
	// State is the opaque serialized soft-buffer payload.
	State []byte
}

// Type implements Message.
func (*MigrateState) Type() MsgType { return TMigrateState }

// MarshalBinary implements Message.
func (m *MigrateState) MarshalBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = binary.BigEndian.AppendUint16(dst, m.Cell)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.State)))
	dst = append(dst, m.State...)
	return dst
}

// UnmarshalBinary implements Message.
func (m *MigrateState) UnmarshalBinary(src []byte) error {
	if len(src) < 10 {
		return fmt.Errorf("migrate-state payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.Seq = binary.BigEndian.Uint32(src)
	m.Cell = binary.BigEndian.Uint16(src[4:])
	n := binary.BigEndian.Uint32(src[6:])
	if int(n) != len(src)-10 {
		return fmt.Errorf("migrate-state length %d vs %d: %w", n, len(src)-10, ErrBadMessage)
	}
	m.State = append([]byte(nil), src[10:]...)
	return nil
}

// Ack acknowledges a command.
type Ack struct {
	// Seq echoes the command sequence number.
	Seq uint32
}

// Type implements Message.
func (*Ack) Type() MsgType { return TAck }

// MarshalBinary implements Message.
func (m *Ack) MarshalBinary(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, m.Seq)
}

// UnmarshalBinary implements Message.
func (m *Ack) UnmarshalBinary(src []byte) error {
	if len(src) != 4 {
		return fmt.Errorf("ack payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.Seq = binary.BigEndian.Uint32(src)
	return nil
}

// ErrorMsg reports a command failure.
type ErrorMsg struct {
	// Seq echoes the failing command's sequence number.
	Seq uint32
	// Code is an agent-defined error code.
	Code uint16
	// Text is a human-readable description.
	Text string
}

// Type implements Message.
func (*ErrorMsg) Type() MsgType { return TError }

// MarshalBinary implements Message.
func (m *ErrorMsg) MarshalBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = binary.BigEndian.AppendUint16(dst, m.Code)
	dst = append(dst, m.Text...)
	return dst
}

// UnmarshalBinary implements Message.
func (m *ErrorMsg) UnmarshalBinary(src []byte) error {
	if len(src) < 6 {
		return fmt.Errorf("error payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.Seq = binary.BigEndian.Uint32(src)
	m.Code = binary.BigEndian.Uint16(src[4:])
	m.Text = string(src[6:])
	return nil
}

// CellLoad reports one cell's smoothed compute demand so the controller's
// per-cell monitor can feed placement and scaling.
type CellLoad struct {
	// ServerID identifies the reporting agent.
	ServerID uint32
	// Cell is the cell the demand belongs to.
	Cell uint16
	// MilliCores is the demand in 1/1000 reference cores.
	MilliCores uint32
	// TTI timestamps the report in the agent's subframe clock.
	TTI uint64
}

// Type implements Message.
func (*CellLoad) Type() MsgType { return TCellLoad }

// MarshalBinary implements Message.
func (m *CellLoad) MarshalBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.ServerID)
	dst = binary.BigEndian.AppendUint16(dst, m.Cell)
	dst = binary.BigEndian.AppendUint32(dst, m.MilliCores)
	dst = binary.BigEndian.AppendUint64(dst, m.TTI)
	return dst
}

// UnmarshalBinary implements Message.
func (m *CellLoad) UnmarshalBinary(src []byte) error {
	if len(src) != 18 {
		return fmt.Errorf("cell-load payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.ServerID = binary.BigEndian.Uint32(src)
	m.Cell = binary.BigEndian.Uint16(src[4:])
	m.MilliCores = binary.BigEndian.Uint32(src[6:])
	m.TTI = binary.BigEndian.Uint64(src[10:])
	return nil
}

// StatsRequest asks the agent for its current telemetry snapshot.
type StatsRequest struct {
	// Seq is the request sequence number the report echoes.
	Seq uint32
}

// Type implements Message.
func (*StatsRequest) Type() MsgType { return TStatsRequest }

// MarshalBinary implements Message.
func (m *StatsRequest) MarshalBinary(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, m.Seq)
}

// UnmarshalBinary implements Message.
func (m *StatsRequest) UnmarshalBinary(src []byte) error {
	if len(src) != 4 {
		return fmt.Errorf("stats-request payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.Seq = binary.BigEndian.Uint32(src)
	return nil
}

// StatsReport answers a StatsRequest with the agent's telemetry snapshot.
// Data is the telemetry.Snapshot JSON encoding — the snapshot schema evolves
// with the metric set, so the control protocol treats it as opaque bytes
// rather than freezing per-metric wire fields.
type StatsReport struct {
	// Seq echoes the request sequence number.
	Seq uint32
	// ServerID identifies the reporting agent.
	ServerID uint32
	// Data is the encoded telemetry snapshot.
	Data []byte
}

// Type implements Message.
func (*StatsReport) Type() MsgType { return TStatsReport }

// MarshalBinary implements Message.
func (m *StatsReport) MarshalBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = binary.BigEndian.AppendUint32(dst, m.ServerID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Data)))
	dst = append(dst, m.Data...)
	return dst
}

// UnmarshalBinary implements Message.
func (m *StatsReport) UnmarshalBinary(src []byte) error {
	if len(src) < 12 {
		return fmt.Errorf("stats-report payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.Seq = binary.BigEndian.Uint32(src)
	m.ServerID = binary.BigEndian.Uint32(src[4:])
	n := binary.BigEndian.Uint32(src[8:])
	if int(n) != len(src)-12 {
		return fmt.Errorf("stats-report length %d vs %d: %w", n, len(src)-12, ErrBadMessage)
	}
	m.Data = append([]byte(nil), src[12:]...)
	return nil
}

// CellOwned declares the cells an agent currently runs. Sent right after
// registration; on a fresh start the list is empty, after a reconnect it
// lets the controller reconcile (the controller wins: cells placed elsewhere
// in the meantime are removed from the agent, cells it should still run are
// confirmed without a redundant reassignment).
type CellOwned struct {
	// ServerID identifies the reporting agent.
	ServerID uint32
	// Cells are the cell IDs the agent is currently serving.
	Cells []uint16
}

// Type implements Message.
func (*CellOwned) Type() MsgType { return TCellOwned }

// MarshalBinary implements Message.
func (m *CellOwned) MarshalBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.ServerID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Cells)))
	for _, c := range m.Cells {
		dst = binary.BigEndian.AppendUint16(dst, c)
	}
	return dst
}

// UnmarshalBinary implements Message.
func (m *CellOwned) UnmarshalBinary(src []byte) error {
	if len(src) < 6 {
		return fmt.Errorf("cell-owned payload %d bytes: %w", len(src), ErrBadMessage)
	}
	m.ServerID = binary.BigEndian.Uint32(src)
	n := int(binary.BigEndian.Uint16(src[4:]))
	if len(src) != 6+2*n {
		return fmt.Errorf("cell-owned %d cells in %d bytes: %w", n, len(src), ErrBadMessage)
	}
	m.Cells = make([]uint16, n)
	for i := 0; i < n; i++ {
		m.Cells[i] = binary.BigEndian.Uint16(src[6+2*i:])
	}
	return nil
}

// newMessage returns an empty message value for a wire type.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case TRegister:
		return &Register{}, nil
	case TRegisterAck:
		return &RegisterAck{}, nil
	case THeartbeat:
		return &Heartbeat{}, nil
	case TAssignCell:
		return &AssignCell{}, nil
	case TRemoveCell:
		return &RemoveCell{}, nil
	case TMigrateState:
		return &MigrateState{}, nil
	case TAck:
		return &Ack{}, nil
	case TError:
		return &ErrorMsg{}, nil
	case TCellLoad:
		return &CellLoad{}, nil
	case TStatsRequest:
		return &StatsRequest{}, nil
	case TStatsReport:
		return &StatsReport{}, nil
	case TCellOwned:
		return &CellOwned{}, nil
	default:
		return nil, fmt.Errorf("unknown message type %d: %w", t, ErrBadMessage)
	}
}

// Conn frames Messages over an underlying net.Conn. Reads are single-reader;
// writes are internally serialized so any goroutine may send.
type Conn struct {
	nc net.Conn
	br *bufio.Reader

	wmu  sync.Mutex
	wbuf []byte

	// ReadTimeout bounds each ReadMessage; zero means no deadline.
	ReadTimeout time.Duration
}

// NewConn wraps a net.Conn.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// WriteMessage frames and sends one message.
func (c *Conn) WriteMessage(m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = c.wbuf[:0]
	c.wbuf = append(c.wbuf, 0, 0, 0, 0, byte(m.Type()))
	c.wbuf = m.MarshalBinary(c.wbuf)
	payload := len(c.wbuf) - 5
	if payload > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, payload)
	}
	binary.BigEndian.PutUint32(c.wbuf[:4], uint32(payload))
	_, err := c.nc.Write(c.wbuf)
	return err
}

// ReadMessage reads and decodes the next frame.
func (c *Conn) ReadMessage() (Message, error) {
	// Always (re)arm the deadline: a zero ReadTimeout must clear any
	// deadline a previous timed read left on the socket, or it keeps
	// firing absolutely (e.g. the 5 s registration deadline killing the
	// first blocking command read after it elapses).
	var deadline time.Time
	if c.ReadTimeout > 0 {
		deadline = time.Now().Add(c.ReadTimeout)
	}
	if err := c.nc.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	var hdr [5]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return nil, err
	}
	m, err := newMessage(MsgType(hdr[4]))
	if err != nil {
		return nil, err
	}
	if err := m.UnmarshalBinary(payload); err != nil {
		return nil, err
	}
	return m, nil
}
