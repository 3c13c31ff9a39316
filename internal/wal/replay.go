package wal

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// The replay view and the fold over it (DESIGN.md §6e, §6l). The view is
// what recovery replays: the latest valid checkpoint's live records, then
// every non-checkpoint record past its horizon, in log order — every
// non-checkpoint record when no checkpoint is usable. It has one
// definition and two sources: a record slice (Expand, and every log but a
// FileLog), and a FileLog's file image, walked by the validating decoder
// without materialising a record. A restart reads its file once: the
// view walks the image OpenFile read and checked, re-verifying every
// checksum on it, and the log drops that image at its first read, append
// or compaction, so the view holds the only copy from then on.

// View is a log's replay view.
type View struct {
	// Checkpoint is the checkpoint the view starts from; nil means a
	// full replay.
	Checkpoint *Checkpoint
	// Skipped counts the records the checkpoint summarized away.
	Skipped int
	// Fallback is set when a checkpoint record was present but invalid,
	// forcing the fall back to an earlier checkpoint or a full replay.
	Fallback bool
	head     []Record // slice source: the whole view; file source: the checkpoint's live records
	image    []byte   // file source: the file image the records after head are read from
	offs     []uint32 // file source: where in image each record after head is framed
}

// start adopts, among n checkpoint records in log order (at(i) the
// i-th), the last valid one; every checkpoint after it is invalid and
// the view falls back past it. It returns the adopted one's index, or -1.
func (v *View) start(n int, at func(i int) (*Checkpoint, error)) (int, error) {
	for k := n - 1; k >= 0; k-- {
		cp, err := at(k)
		if err != nil {
			return -1, err
		}
		if cp.valid() {
			v.Checkpoint, v.Skipped = cp, cp.Dropped
			return k, nil
		}
		v.Fallback = true
	}
	return -1, nil
}

// holds reports whether a record of the log belongs to the view, after
// the checkpoint's live records.
func (v *View) holds(r *Record) bool {
	return r.Type != RecCheckpoint && (v.Checkpoint == nil || r.LSN > v.Checkpoint.Horizon)
}

// startOf returns the view of recs without its records, the index in
// recs of the checkpoint record it starts from (-1 for none), and
// whether recs holds a checkpoint record at all.
func startOf(recs []Record) (v View, idx int, ckpts bool) {
	var cands []int
	for i := range recs {
		if recs[i].Type == RecCheckpoint {
			cands = append(cands, i)
		}
	}
	k, _ := v.start(len(cands), func(i int) (*Checkpoint, error) { return recs[cands[i]].Checkpoint, nil })
	if k < 0 {
		return v, -1, len(cands) > 0
	}
	return v, cands[k], true
}

// viewOf is the view's slice source. When recs holds no checkpoint
// record the view is recs itself, sharing its backing array.
func viewOf(recs []Record) View {
	v, _, ckpts := startOf(recs)
	if !ckpts {
		v.head = recs
		return v
	}
	if cp := v.Checkpoint; cp != nil {
		v.head = append(make([]Record, 0, len(cp.Live)+len(recs)), cp.Live...)
	} else {
		v.head = make([]Record, 0, len(recs))
	}
	for i := range recs {
		if v.holds(&recs[i]) {
			v.head = append(v.head, recs[i])
		}
	}
	return v
}

// view is the view's file source: it walks the file image once, checks
// each frame's checksum, and folds every record of the view into f, in
// order, returning each position's slot. A record past the checkpoint's
// live ones is scanned, not decoded: its strings share the image
// (scanRecord).
func (l *FileLog) view(f *fold) (View, []int32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	image, err := l.contents()
	if err != nil {
		return View{}, nil, err
	}
	if uint64(len(image)) > math.MaxUint32 {
		return View{}, nil, fmt.Errorf("wal: a %d-byte log is past the replay view's 4 GiB offsets", len(image))
	}
	v := View{image: image, offs: make([]uint32, 0, l.frames)}
	if err := l.ff.scan(image, func(p []byte) error {
		v.offs = append(v.offs, uint32(frameAt(image, p)))
		return nil
	}); err != nil {
		return View{}, nil, err
	}
	if _, err := v.start(len(l.ckpts), func(i int) (*Checkpoint, error) {
		k := l.ckpts[i]
		if k >= len(v.offs) {
			return nil, fmt.Errorf("%w: checkpoint frame %d past the end", ErrCorrupt, k)
		}
		r, err := decodeRecord(v.payload(k))
		if err == nil && r.Type != RecCheckpoint {
			err = errors.New("not a checkpoint record")
		}
		if err != nil {
			return nil, fmt.Errorf("%w: frame %d: %v", ErrCorrupt, k, err)
		}
		return r.Checkpoint, nil
	}); err != nil {
		return View{}, nil, err
	}
	f.shared = true
	// The checkpoint's process count is only a capacity hint: it is read
	// from the file, and no process has more slots than records.
	procs := l.starts
	if cp := v.Checkpoint; cp != nil {
		v.head = cp.Live
		procs += min(max(cp.Procs, 0), len(cp.Live))
	}
	f.reserve(procs)
	owner := make([]int32, 0, len(v.head)+len(v.offs))
	for i := range v.head {
		owner = append(owner, f.add(&v.head[i]))
	}
	n := 0
	var r Record
	for i, o := range v.offs {
		if err := scanRecord(v.payload(i), &r); err != nil {
			return View{}, nil, fmt.Errorf("%w: frame %d: %v", ErrCorrupt, i, err)
		}
		if v.holds(&r) {
			v.offs[n] = o
			n++
			owner = append(owner, f.add(&r))
		}
	}
	v.offs = v.offs[:n]
	return v, owner, nil
}

// payload returns the payload of the i-th framed record of a file view.
func (v *View) payload(i int) []byte { return framePayload(v.image, v.offs[i]) }

// Len is the number of records in the view.
func (v *View) Len() int { return len(v.head) + len(v.offs) }

// Each passes every record of the view to visit, in order. A record read
// from a file shares the file image's bytes: visit clones the strings it
// keeps.
func (v *View) Each(visit func(r *Record)) error {
	for i := range v.head {
		visit(&v.head[i])
	}
	var r Record
	for i := range v.offs {
		if err := scanRecord(v.payload(i), &r); err != nil {
			return err
		}
		visit(&r)
	}
	return nil
}

// Records returns the view's records, decoded in full; the slice
// source's view is returned as it is.
func (v *View) Records() ([]Record, error) {
	if len(v.offs) == 0 {
		return v.head, nil
	}
	out := append(make([]Record, 0, v.Len()), v.head...)
	for i := range v.offs {
		r, err := decodeRecord(v.payload(i))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// record returns the record at position i of the view, decoded in full.
func (v *View) record(i int) (Record, error) {
	if i < len(v.head) {
		return v.head[i], nil
	}
	return decodeRecord(v.payload(i - len(v.head)))
}

// Replay is a log's replay view folded in one pass: what restart
// recovery reads of the log (DESIGN.md §6l).
type Replay struct {
	View
	// Images summarizes every process in the view: Analyze's image with
	// Committed, Compensated and Failed left empty (Stands carries the
	// verdict), Resolved holding only locals still in Prepared, and
	// RedoCommit only the entries ReadReplay's keepRedo accepts.
	Images map[string]*ProcImage
	// Live holds, decoded in full and in view order, the records of
	// every process still open at the end of the view (imaged and not
	// terminated); Pos holds each one's position in the view.
	Live []Record
	Pos  []int
}

// ReadReplay reads log's replay view and folds it in one pass; only the
// records of processes still open at its end are then decoded in full. A
// FileLog is read from its file; any other log streams its Records
// through the same fold. keepRedo, when non-nil, selects the RedoCommit
// entries the images keep.
func ReadReplay(log Log, keepRedo func(PreparedTx) bool) (*Replay, error) {
	f := newFold(false)
	f.keepRedo = keepRedo
	var owner []int32 // each position's slot in the fold
	var rp Replay
	var err error
	if fl, ok := log.(*FileLog); ok {
		rp.View, owner, err = fl.view(f)
	} else {
		var recs []Record
		if recs, err = log.Records(); err == nil {
			rp.View = viewOf(recs)
			owner = make([]int32, 0, rp.Len())
			err = rp.Each(func(r *Record) { owner = append(owner, f.add(r)) })
		}
	}
	if err != nil {
		return nil, err
	}
	rp.Images = f.images()
	for pos, s := range owner {
		if sl := &f.slots[s]; !sl.imaged || sl.img.Terminated {
			continue
		}
		r, err := rp.record(pos)
		if err != nil {
			return nil, err
		}
		rp.Live = append(rp.Live, r)
		rp.Pos = append(rp.Pos, pos)
	}
	return &rp, nil
}

// fold is the per-record image transition applied across a view: the one
// implementation behind Analyze (full images) and ReadReplay (summaries).
// What an activity went through is kept per process in bit sets, and a
// prepared transaction in one map for the whole fold until it is
// resolved, so that a summary costs its process no allocation but the
// copy of its id; a full image also lists its activities.
type fold struct {
	slot  map[string]int32 // process -> index in slots
	slots []foldSlot
	// pending holds the prepared transactions not yet resolved.
	pending map[actKey]PreparedTx
	// wide holds the steps of activities whose local id no bit set has.
	wide     map[actKey]uint8
	full     bool
	keepRedo func(PreparedTx) bool
	// shared marks records whose strings share a file image: what a
	// summary keeps of them is copied.
	shared bool
}

type foldSlot struct {
	img    ProcImage
	imaged bool // a record that images its process arrived (a dispatch alone does not)
	// prepared and resolved note that the process prepared or resolved
	// anything; steps holds, per step, the local ids in [0, 64) that took it.
	prepared, resolved bool
	steps              [nSteps]uint64
}

// actKey names an activity of a process in the fold.
type actKey struct {
	slot  int32
	local int
}

// The steps of an activity a fold keeps: what the verdict and the
// resolution of 2PC read.
const (
	stepCommitted = iota
	stepCompensated
	stepResolved
	nSteps
)

func newFold(full bool) *fold {
	return &fold{slot: make(map[string]int32), pending: make(map[actKey]PreparedTx), full: full}
}

// reserve sizes an empty fold for procs processes.
func (f *fold) reserve(procs int) {
	f.slot = make(map[string]int32, procs)
	f.slots = make([]foldSlot, 0, procs)
}

// mark notes that activity local of slot s took step.
func (f *fold) mark(s int32, local, step int) {
	if uint(local) < 64 {
		f.slots[s].steps[step] |= 1 << local
		return
	}
	if f.wide == nil {
		f.wide = make(map[actKey]uint8)
	}
	f.wide[actKey{s, local}] |= 1 << step
}

// took reports whether activity local of slot s took step.
func (f *fold) took(s int32, local, step int) bool {
	if uint(local) < 64 {
		return f.slots[s].steps[step]&(1<<local) != 0
	}
	return f.wide[actKey{s, local}]&(1<<step) != 0
}

func (r *Record) tx() PreparedTx {
	return PreparedTx{Subsystem: r.Subsystem, Tx: r.Tx, Service: r.Service}
}

// own returns ptx with strings of its own.
func (ptx PreparedTx) own() PreparedTx {
	ptx.Subsystem, ptx.Service = strings.Clone(ptx.Subsystem), strings.Clone(ptx.Service)
	return ptx
}

// redo notes the transaction a record shows committed.
func (f *fold) redo(im *ProcImage, r *Record) {
	if r.Tx == 0 || r.Subsystem == "" || f.keepRedo != nil && !f.keepRedo(r.tx()) {
		return
	}
	ptx := r.tx()
	if f.shared {
		ptx = ptx.own()
	}
	im.RedoCommit = append(im.RedoCommit, ptx)
}

// list appends local to a full image's list.
func (f *fold) list(l *[]int, local int) {
	if f.full {
		*l = append(*l, local)
	}
}

// add folds one record into its process's image and returns the
// process's slot.
func (f *fold) add(r *Record) int32 {
	s, ok := f.slot[r.Proc]
	if !ok {
		s = int32(len(f.slots))
		proc := r.Proc
		if f.shared {
			proc = strings.Clone(proc)
		}
		f.slot[proc] = s
		f.slots = append(f.slots, foldSlot{img: ProcImage{Proc: proc}})
	}
	sl := &f.slots[s]
	im := &sl.img
	act := actKey{s, r.Local}
	switch r.Type {
	case RecStart:
	case RecOutcome:
		switch r.Outcome {
		case "committed":
			f.list(&im.Committed, r.Local)
			f.mark(s, r.Local, stepCommitted)
			delete(f.pending, act)
			f.redo(im, r)
		case "prepared":
			sl.prepared = true
			f.pending[act] = r.tx()
		}
	case RecCompensate:
		f.list(&im.Compensated, r.Local)
		f.mark(s, r.Local, stepCompensated)
		f.redo(im, r)
	case RecFailed:
		f.list(&im.Failed, r.Local)
	case RecAbortBegin:
		im.Aborting = true
	case RecDecision:
		im.Decided = true
	case RecResolved:
		sl.resolved = true
		f.mark(s, r.Local, stepResolved)
		if r.Commit {
			f.list(&im.Committed, r.Local)
			f.mark(s, r.Local, stepCommitted)
			f.redo(im, r)
		}
		delete(f.pending, act)
	case RecTerminate:
		im.Terminated = true
		im.TerminatedCommitted = r.Committed
	default: // a dispatch images nothing
		return s
	}
	sl.imaged = true
	return s
}

// images completes the fold: the verdicts, and the transactions still
// prepared, into the image of every process some record imaged.
func (f *fold) images() map[string]*ProcImage {
	for i := range f.slots {
		sl := &f.slots[i]
		sl.img.Stands = sl.img.TerminatedCommitted || sl.steps[stepCommitted]&^sl.steps[stepCompensated] != 0
		if f.full && sl.prepared {
			sl.img.Prepared = make(map[int]PreparedTx)
		}
		if f.full && sl.resolved {
			sl.img.Resolved = make(map[int]bool)
			for b := sl.steps[stepResolved]; b != 0; b &= b - 1 {
				sl.img.Resolved[bits.TrailingZeros64(b)] = true
			}
		}
	}
	for k, steps := range f.wide {
		im := &f.slots[k.slot].img
		if steps&(1<<stepCommitted) != 0 && steps&(1<<stepCompensated) == 0 {
			im.Stands = true
		}
		if f.full && steps&(1<<stepResolved) != 0 {
			im.Resolved[k.local] = true
		}
	}
	for k, ptx := range f.pending {
		im := &f.slots[k.slot].img
		if im.Prepared == nil {
			im.Prepared = make(map[int]PreparedTx)
		}
		if f.shared {
			ptx = ptx.own()
		}
		im.Prepared[k.local] = ptx
		if !f.full && f.took(k.slot, k.local, stepResolved) {
			if im.Resolved == nil {
				im.Resolved = make(map[int]bool)
			}
			im.Resolved[k.local] = true
		}
	}
	out := make(map[string]*ProcImage, len(f.slots))
	for i := range f.slots {
		if sl := &f.slots[i]; sl.imaged {
			out[sl.img.Proc] = &sl.img
		}
	}
	return out
}
