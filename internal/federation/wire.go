// Package federation splits the transactional process manager across
// scheduler nodes connected by a real wire: N nodes each own a
// partition of the processes, while one hub — the paper's transactional
// coordination agent — owns the federation of subsystems, the shared
// PRED policy state, a global stamp counter and the one instance of
// every process.
//
// The hub is a full host of the shared protocol driver
// (scheduler.Driver): a node asks it to drive one of its processes one
// transition (MsgDispatch), and the hub runs that transition — gates,
// subsystem invocation, completion, failure plan, abort, 2PC commit,
// termination — exactly as the single-node hosts do, under PRED. The
// node is the hub's remote force-log: every record the transition
// force-logs is stamped, travels back on the reply and is appended to
// the node's WAL in order. A write-ahead record — one a subsystem commit
// follows — parks the transition until the node's next request for the
// process acknowledges the append (DESIGN.md §6l). Stitching the
// per-node logs by stamp yields one global history that the existing
// single-node machinery consumes unchanged: wal.Analyze,
// scheduler.Recover and the batteries' recovery judge — that reuse is
// the recovery composition.
//
// The wire is a hand-rolled length-prefixed binary codec over localhost
// TCP (dependency-free), behind the two-method Transport; the records a
// frame carries are in the WAL's own record encoding (internal/wal's
// codec), the one the node writes them to disk in. The package
// knows no fault model: crash points fire through injected hooks
// (Config.HubInject, NodeInject) and an unreliable wire is a wrapper a
// battery puts around Transport (Config.WrapTransport, DESIGN.md §6m).
// The hub dedups requests by (node, request id), so retries and
// duplicates are exactly-once; the parking rule reduces every loss
// window to a rule recovery already implements (orphan presumed abort,
// redo-commit, presumed commit after decision).
package federation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"transproc/internal/wal"
)

// MsgType enumerates the federation RPCs. Requests and responses share
// the Frame shape; responses use MsgResponse.
type MsgType uint8

const (
	// MsgHello introduces a node to the hub.
	MsgHello MsgType = iota + 1
	// MsgAdmit admits a process (or restart incarnation) into the
	// cluster-wide process table; the reply carries its RecStart record.
	MsgAdmit
	// MsgDispatch asks the hub to drive a process one transition. It
	// acknowledges that every record of the process's earlier replies is
	// in the node's log; the reply carries the records of this one. Flag
	// marks the re-send of a voided request: the invocation the hub
	// would make fails instead.
	MsgDispatch
	// MsgCancel resolves an ambiguous dispatch after transport-retry
	// exhaustion: it replays the cached response if the request ever
	// executed, or certifies that it never ran.
	MsgCancel
	// MsgIdle reports node quiescence for cluster-wide stall detection;
	// the response may carry an adoption offer.
	MsgIdle
	// MsgHeartbeat refreshes the node's membership lease without doing
	// any scheduling work; the response carries the hub's epoch so a
	// restarted hub is detected even on an otherwise idle node.
	MsgHeartbeat
	// MsgReattach asks a freshly reconnected node for the recovered fate
	// of one of its in-flight processes: already settled (committed or
	// aborted by hub recovery) and, for aborted origins with restarts
	// remaining, the incarnation id under which the node may resubmit.
	MsgReattach
	// MsgResponse is the type of every hub response.
	MsgResponse

	msgTypeMax = MsgResponse
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgAdmit:
		return "admit"
	case MsgDispatch:
		return "dispatch"
	case MsgCancel:
		return "cancel"
	case MsgIdle:
		return "idle"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgReattach:
		return "reattach"
	case MsgResponse:
		return "response"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Status is the hub's verdict in a response frame.
type Status uint8

const (
	// StOK: the request executed; on MsgDispatch, the process moved.
	StOK Status = iota + 1
	// StWait: a policy gate or a subsystem lock holds the process's next
	// transition back; ask again later.
	StWait
	// StPark: the process's remaining recovery steps are blocked by a
	// dead node's zombie events and can only run after the crash cycle;
	// the node stops driving it (without a terminate record) and the
	// composed recovery finishes its group abort in correct global
	// order.
	StPark
	// StDone: the process is terminal. Extra carries its fate (a
	// Reattach* code) and Flag whether the node may restart the origin
	// under a fresh incarnation.
	StDone
	// StStale: the frame carries an epoch from a hub incarnation that no
	// longer exists (or comes from a node whose lease expired); the node
	// must re-hello and re-attach before retrying.
	StStale
	// StAdopt: an idle response carrying an orphaned process the node
	// should adopt (Origin, Proc = the new incarnation, Local = its
	// arrival rank, Extra = its restart number).
	StAdopt
	// StError: the hub rejected the request; Err carries the reason.
	StError

	statusMax = StError
)

// KindStands marks, in Frame.Kind, a settled incarnation whose work
// stands: it committed, or it aborted past its pivot and completed
// forward (scheduler.Outcome.Stands). Flag2 cannot carry it: a cancel
// fetch sets Flag2 on the reply it replays.
const KindStands uint8 = 1

// Frame is the single wire message shape; each MsgType populates the
// subset of fields it needs. Keeping one struct makes the codec — and
// its fuzz target — total over every message type. Tx, Service and
// Subsystem are codec surface no message populates any more (what they
// said now travels inside Records).
type Frame struct {
	Type   MsgType
	Status Status
	Kind   uint8 // response: KindStands when a settled incarnation's work stands (StDone, a settled fate's reattach answer)
	Flag   bool  // request: voided re-send (MsgDispatch), finished (MsgIdle), restart wanted (MsgReattach); response: restart granted
	Flag2  bool  // response: the answer to an earlier execution (cancel fetch, replayed admit)
	Node   uint32
	Epoch  uint32 // hub incarnation the sender believes in; 0 = unknown (hello)
	Req    uint64
	Local  int32 // arrival rank (MsgAdmit, StAdopt); the number of a granted restart (reattach response)
	Extra  int32 // restarts on MsgAdmit and StAdopt; a Reattach* fate in other responses
	Tx     int64
	Stamp  int64 // the RecStart stamp in an admit response
	Gen    int64 // progress generation (MsgIdle, every response), original request id (MsgCancel)

	Proc      string
	Origin    string
	Service   string
	Subsystem string
	Err       string

	// Records are the stamped log records the request's transition
	// force-logged, in order; the node appends them to its WAL before it
	// sends its next request for the process.
	Records []wal.Record
}

// Codec limits: a frame is rejected when its payload exceeds MaxFrame,
// any string exceeds MaxString or it carries more than MaxRecords
// records. The limits bound decoder allocation under malformed (or
// hostile) input.
const (
	MaxFrame   = 1 << 16
	MaxString  = 4096
	MaxRecords = 255
)

// Codec errors.
var (
	ErrFrameTooLarge = errors.New("federation: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("federation: truncated frame")
	ErrTrailing      = errors.New("federation: trailing bytes after frame")
	ErrBadType       = errors.New("federation: unknown message type")
	ErrBadStatus     = errors.New("federation: unknown status")
	ErrBadString     = errors.New("federation: string field exceeds MaxString")
	ErrBadRecord     = errors.New("federation: malformed log record")
)

// fixedHeader is the byte count of the fixed-width portion of a payload.
const fixedHeader = 1 + 1 + 1 + 1 + 4 + 4 + 8 + 4 + 4 + 8 + 8 + 8

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// readString cuts one length-prefixed string off the front of b.
func readString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if n > MaxString {
		return "", nil, ErrBadString
	}
	if len(b) < n {
		return "", nil, ErrTruncated
	}
	return string(b[:n]), b[n:], nil
}

func flagBits(a, b bool) (bits uint8) {
	if a {
		bits |= 1
	}
	if b {
		bits |= 2
	}
	return bits
}

// EncodePayload serializes a frame payload (without the length prefix):
// the fixed-width header, the frame's strings, then the records as the
// WAL codec's counted list of live records (wal.AppendRecords). It is
// nil for a frame whose records the codec refuses.
func EncodePayload(f *Frame) []byte {
	b, _ := encodePayload(f)
	return b
}

func encodePayload(f *Frame) ([]byte, error) {
	n := fixedHeader + 1
	for _, s := range []string{f.Proc, f.Origin, f.Service, f.Subsystem, f.Err} {
		n += 2 + len(s)
	}
	for i := range f.Records {
		r := &f.Records[i]
		n += 32 + len(r.Proc) + len(r.Service) + len(r.Subsystem) + len(r.Outcome)
	}
	b := make([]byte, 0, n)
	b = append(b, uint8(f.Type), uint8(f.Status), f.Kind, flagBits(f.Flag, f.Flag2))
	b = binary.LittleEndian.AppendUint32(b, f.Node)
	b = binary.LittleEndian.AppendUint32(b, f.Epoch)
	b = binary.LittleEndian.AppendUint64(b, f.Req)
	b = binary.LittleEndian.AppendUint32(b, uint32(f.Local))
	b = binary.LittleEndian.AppendUint32(b, uint32(f.Extra))
	b = binary.LittleEndian.AppendUint64(b, uint64(f.Tx))
	b = binary.LittleEndian.AppendUint64(b, uint64(f.Stamp))
	b = binary.LittleEndian.AppendUint64(b, uint64(f.Gen))
	for _, s := range []string{f.Proc, f.Origin, f.Service, f.Subsystem, f.Err} {
		b = appendString(b, s)
	}
	b, err := wal.AppendRecords(b, f.Records, MaxString)
	if err != nil {
		return nil, recordErr(err)
	}
	return b, nil
}

// recordErr names a refusal of the WAL record codec by the wire's
// sentinel for its class.
func recordErr(err error) error {
	switch {
	case errors.Is(err, wal.ErrShortRecord):
		return ErrTruncated
	case errors.Is(err, wal.ErrLongString):
		return ErrBadString
	default:
		return ErrBadRecord
	}
}

// DecodePayload parses a frame payload. Malformed input returns an
// error, never panics, and never allocates more than the input length
// plus MaxFrame: the record list grows as records are actually parsed,
// never by the count the payload claims.
func DecodePayload(b []byte) (*Frame, error) {
	if len(b) > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if len(b) < fixedHeader {
		return nil, ErrTruncated
	}
	f := &Frame{
		Type:   MsgType(b[0]),
		Status: Status(b[1]),
		Kind:   b[2],
	}
	if f.Type < MsgHello || f.Type > msgTypeMax {
		return nil, ErrBadType
	}
	if f.Status > statusMax {
		return nil, ErrBadStatus
	}
	flags := b[3]
	if flags > 3 {
		return nil, fmt.Errorf("federation: invalid flag bits %#x", flags)
	}
	f.Flag = flags&1 != 0
	f.Flag2 = flags&2 != 0
	f.Node = binary.LittleEndian.Uint32(b[4:])
	f.Epoch = binary.LittleEndian.Uint32(b[8:])
	f.Req = binary.LittleEndian.Uint64(b[12:])
	f.Local = int32(binary.LittleEndian.Uint32(b[20:]))
	f.Extra = int32(binary.LittleEndian.Uint32(b[24:]))
	f.Tx = int64(binary.LittleEndian.Uint64(b[28:]))
	f.Stamp = int64(binary.LittleEndian.Uint64(b[36:]))
	f.Gen = int64(binary.LittleEndian.Uint64(b[44:]))
	rest := b[fixedHeader:]
	var err error
	for _, dst := range []*string{&f.Proc, &f.Origin, &f.Service, &f.Subsystem, &f.Err} {
		if *dst, rest, err = readString(rest); err != nil {
			return nil, err
		}
	}
	if f.Records, rest, err = wal.DecodeRecords(rest, MaxRecords, MaxString); err != nil {
		return nil, recordErr(err)
	}
	if len(rest) != 0 {
		return nil, ErrTrailing
	}
	return f, nil
}

// WriteFrame writes one length-prefixed frame. It refuses a frame that
// ReadFrame would refuse.
func WriteFrame(w io.Writer, f *Frame) error {
	payload, err := encodePayload(f)
	if err != nil {
		return err
	}
	if len(payload) > MaxFrame || len(f.Records) > MaxRecords {
		return ErrFrameTooLarge
	}
	if max(len(f.Proc), len(f.Origin), len(f.Service), len(f.Subsystem), len(f.Err)) > MaxString {
		return ErrBadString
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return DecodePayload(payload)
}
