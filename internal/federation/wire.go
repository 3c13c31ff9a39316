// Package federation splits the transactional process manager across
// scheduler nodes connected by a real wire: N nodes each own a
// partition of the processes and drive their execution, while one hub —
// the paper's transactional coordination agent — owns the federation of
// subsystems, the shared PRED policy state, and a global stamp counter.
//
// Every scheduling decision a node needs (dispatch admissibility,
// Lemma 1-3 gates, commit-immediately vs defer, stall victims) is one
// RPC into the hub's serial section, where the shared protocol driver
// (scheduler.Driver) takes it over the hub's mirrors — the same gates
// and victim choice the single-node hosts run, under PRED, the one mode
// whose decisions are per-event and therefore liftable behind RPCs; the
// logging transitions are still split between the hub's handlers and
// the owning node (DESIGN.md §6l). The response carries the stamps
// under which the node force-logs the corresponding records into its
// per-node WAL. Stitching the per-node logs by stamp yields one global
// history that the existing single-node machinery consumes unchanged:
// wal.Analyze, scheduler.Recover and the batteries' recovery judge —
// that reuse is the recovery composition.
//
// The wire is a hand-rolled length-prefixed binary codec over localhost
// TCP (dependency-free), behind the two-method Transport. The package
// knows no fault model: crash points fire through injected hooks
// (Config.HubInject, NodeInject) and an unreliable wire is a wrapper a
// battery puts around Transport (Config.WrapTransport, DESIGN.md §6m).
// The hub dedups requests by (node, request id), so retries and
// duplicates are exactly-once; crash consistency of the node-side logging protocol
// reduces every loss window to a rule recovery already implements
// (orphan presumed abort, redo-commit, presumed commit after decision).
package federation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MsgType enumerates the federation RPCs. Requests and responses share
// the Frame shape; responses use MsgResponse.
type MsgType uint8

const (
	// MsgHello introduces a node to the hub.
	MsgHello MsgType = iota + 1
	// MsgAdmit admits a process (or restart incarnation) into the
	// cluster-wide policy view and returns the RecStart stamp.
	MsgAdmit
	// MsgDispatch asks the hub to policy-check and prepare a frontier
	// activity at its subsystem; returns the transaction and the stamp
	// for the node's "prepared" outcome record.
	MsgDispatch
	// MsgCommitLocal resolves a prepared frontier activity: commit
	// immediately (compensatable, or no active conflicting predecessor)
	// or defer under Lemma 1.
	MsgCommitLocal
	// MsgStepDispatch policy-checks and prepares a recovery step
	// (compensation or forward invocation) per Lemmas 2 and 3.
	MsgStepDispatch
	// MsgStepCommit commits a prepared recovery-step transaction after
	// the node force-logged it (redo-commit crash window).
	MsgStepCommit
	// MsgAbortTx rolls back a prepared transaction (abandoned branch or
	// abort-completion leftovers) and erases its tentative event.
	MsgAbortTx
	// MsgAbortBegin transitions a process into backward recovery.
	MsgAbortBegin
	// MsgCommitClear is the Lemma-1 gate for a process's deferred 2PC
	// commit; on success it returns the RecDecision stamp.
	MsgCommitClear
	// MsgResolve commits one prepared 2PC participant and finalizes its
	// tentative event at the resolve stamp.
	MsgResolve
	// MsgTerminate emits a process's terminal transition.
	MsgTerminate
	// MsgFailed reports an invocation failure the transport could not
	// mask (or the node observed); the hub runs the permanent-failure
	// or transient-retry block and returns the plan shape.
	MsgFailed
	// MsgCancel resolves an ambiguous dispatch after transport-retry
	// exhaustion: it replays the cached response if the request ever
	// executed, or certifies that it never ran.
	MsgCancel
	// MsgIdle reports node quiescence for cluster-wide stall detection;
	// the response may carry a victim designation.
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
	case MsgCommitLocal:
		return "commit-local"
	case MsgStepDispatch:
		return "step-dispatch"
	case MsgStepCommit:
		return "step-commit"
	case MsgAbortTx:
		return "abort-tx"
	case MsgAbortBegin:
		return "abort-begin"
	case MsgCommitClear:
		return "commit-clear"
	case MsgResolve:
		return "resolve"
	case MsgTerminate:
		return "terminate"
	case MsgFailed:
		return "failed"
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
	// StOK: the operation executed; stamps/transaction fields are set.
	StOK Status = iota + 1
	// StPolicyWait: the policy denied the dispatch; retry later.
	StPolicyWait
	// StLockWait: subsystem locks denied the invocation; retry later.
	StLockWait
	// StFailedTransient: the invocation failed and the activity is
	// retriable — the node re-invokes.
	StFailedTransient
	// StFailedPermanent: a definitive failure (Definition 4); the node
	// adopts the failure plan (◁ alternative or backward recovery).
	StFailedPermanent
	// StDeferred: the prepared commit is deferred under Lemma 1.
	StDeferred
	// StNotClear: the Lemma-1 gate still sees an active conflicting
	// predecessor; the 2PC commit waits.
	StNotClear
	// StVictim: the process was designated a stall victim; the node
	// must abort (and may restart) it.
	StVictim
	// StPark: the process's remaining recovery steps are blocked by a
	// dead node's zombie events and can only run after the crash cycle;
	// the node stops driving it (without a terminate record) and the
	// composed recovery finishes its group abort in correct global
	// order.
	StPark
	// StStale: the frame carries an epoch from a hub incarnation that no
	// longer exists (or comes from a node whose lease expired); the node
	// must re-hello and re-attach before retrying.
	StStale
	// StAdopt: an idle response carrying an orphaned process the node
	// should adopt (Origin/Proc/Stamp2 describe the new incarnation).
	StAdopt
	// StError: the hub rejected the request; Err carries the reason.
	StError

	statusMax = StError
)

// Frame is the single wire message shape; each MsgType populates the
// subset of fields it needs. Keeping one struct makes the codec — and
// its fuzz target — total over every message type.
type Frame struct {
	Type   MsgType
	Status Status
	Kind   uint8 // activity.Kind on dispatch-class messages
	Flag   bool
	Flag2  bool
	Node   uint32
	Epoch  uint32 // hub incarnation the sender believes in; 0 = unknown (hello)
	Req    uint64
	Local  int32
	Extra  int32 // restarts on MsgAdmit; step kind on step messages
	Tx     int64
	Stamp  int64
	Stamp2 int64
	Gen    int64 // progress generation (MsgIdle), original request id (MsgCancel)

	Proc      string
	Origin    string
	Service   string
	Subsystem string
	Victim    string
	Err       string
}

// Codec limits: a frame is rejected when its payload exceeds MaxFrame
// or any string exceeds MaxString. The limits bound decoder allocation
// under malformed (or hostile) input.
const (
	MaxFrame  = 1 << 16
	MaxString = 4096
)

// Codec errors.
var (
	ErrFrameTooLarge = errors.New("federation: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("federation: truncated frame")
	ErrTrailing      = errors.New("federation: trailing bytes after frame")
	ErrBadType       = errors.New("federation: unknown message type")
	ErrBadStatus     = errors.New("federation: unknown status")
	ErrBadString     = errors.New("federation: string field exceeds MaxString")
)

// fixedHeader is the byte count of the fixed-width portion of a payload.
const fixedHeader = 1 + 1 + 1 + 1 + 4 + 4 + 8 + 4 + 4 + 8 + 8 + 8 + 8

// EncodePayload serializes a frame payload (without the length prefix).
func EncodePayload(f *Frame) []byte {
	n := fixedHeader
	for _, s := range []string{f.Proc, f.Origin, f.Service, f.Subsystem, f.Victim, f.Err} {
		n += 2 + len(s)
	}
	b := make([]byte, 0, n)
	var flags uint8
	if f.Flag {
		flags |= 1
	}
	if f.Flag2 {
		flags |= 2
	}
	b = append(b, uint8(f.Type), uint8(f.Status), f.Kind, flags)
	b = binary.LittleEndian.AppendUint32(b, f.Node)
	b = binary.LittleEndian.AppendUint32(b, f.Epoch)
	b = binary.LittleEndian.AppendUint64(b, f.Req)
	b = binary.LittleEndian.AppendUint32(b, uint32(f.Local))
	b = binary.LittleEndian.AppendUint32(b, uint32(f.Extra))
	b = binary.LittleEndian.AppendUint64(b, uint64(f.Tx))
	b = binary.LittleEndian.AppendUint64(b, uint64(f.Stamp))
	b = binary.LittleEndian.AppendUint64(b, uint64(f.Stamp2))
	b = binary.LittleEndian.AppendUint64(b, uint64(f.Gen))
	for _, s := range []string{f.Proc, f.Origin, f.Service, f.Subsystem, f.Victim, f.Err} {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	return b
}

// DecodePayload parses a frame payload. Malformed input returns an
// error, never panics, and never allocates more than the input length
// plus MaxFrame.
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
	f.Stamp2 = int64(binary.LittleEndian.Uint64(b[44:]))
	f.Gen = int64(binary.LittleEndian.Uint64(b[52:]))
	rest := b[fixedHeader:]
	for _, dst := range []*string{&f.Proc, &f.Origin, &f.Service, &f.Subsystem, &f.Victim, &f.Err} {
		if len(rest) < 2 {
			return nil, ErrTruncated
		}
		n := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if n > MaxString {
			return nil, ErrBadString
		}
		if len(rest) < n {
			return nil, ErrTruncated
		}
		*dst = string(rest[:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, ErrTrailing
	}
	return f, nil
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, f *Frame) error {
	payload := EncodePayload(f)
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
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
