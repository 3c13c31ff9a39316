package wal

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"transproc/internal/chunk"
)

// The replay view and the fold over it (DESIGN.md §6e, §6l). The view is
// what recovery replays: the latest valid checkpoint's live records, then
// every non-checkpoint record past its horizon, in log order — every
// non-checkpoint record when no checkpoint is usable. It has one
// definition and two sources: a record slice (Expand, and every log but a
// FileLog), and a FileLog's file image, folded by a walk that checks each
// frame, scans its record once and folds it without materialising it. A
// restart reads, checksums and scans its file once: OpenFile's walk of
// the file is that walk, and the first ReadReplay takes over the image
// and the fold it kept. A log read anew after an append or a compaction
// is walked the same way. The log drops what its open kept at its first
// read, append, compaction or close, so the view holds the only copy of
// the image from then on.

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
	in       bitset   // file source: the frames of image whose records are in the view
	n        int      // file source: how many
}

// meet notes a checkpoint record of the log, met in log order: a valid
// one becomes the view's start, and an invalid one after it makes the
// view fall back past it. It reports whether cp became the start.
func (v *View) meet(cp *Checkpoint) bool {
	if !cp.valid() {
		v.Fallback = true
		return false
	}
	v.Checkpoint, v.Skipped, v.Fallback = cp, cp.Dropped, false
	return true
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
	idx = -1
	for i := range recs {
		if recs[i].Type == RecCheckpoint {
			ckpts = true
			if v.meet(recs[i].Checkpoint) {
				idx = i
			}
		}
	}
	return v, idx, ckpts
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

// walk is the view's file source: the one construction that checks a log
// image frame by frame (walkFrames), scans each record and folds the
// view's records as it meets them. OpenFile's own walk of the file is
// one, kept on the log for its first ReadReplay; a file read anew is
// walked by another. A valid checkpoint at the first frame (a compacted
// log) starts the fold from its live records at no cost; a valid one
// further on leaves the fold to finish, which folds the view once, from
// the last valid checkpoint, so that no record is scanned more than twice.
type walk struct {
	v     View
	f     *fold   // nil while the fold waits for finish
	owner []int32 // each position of the view: its process's slot in f
	ckpts []int   // the frames holding checkpoint records, in order
	// frames counts the frames walked; hint bounds how many the image
	// holds (frameCount), which sizes owner.
	frames, hint int
	next         int64 // the highest LSN walked
	r            Record
}

func newWalk(image []byte) *walk {
	return &walk{v: View{image: image}, hint: frameCount(image)}
}

// frame checks and folds the record of the next frame, payload p.
func (w *walk) frame(p []byte) error {
	i, r := w.frames, &w.r
	w.frames++
	if err := scanRecord(p, r); err != nil {
		return err
	}
	// max, not last: compaction puts the checkpoint record ahead of
	// fuzzy-window records with smaller LSNs.
	w.next = max(w.next, r.LSN)
	if r.Type == RecCheckpoint {
		w.ckpts = append(w.ckpts, i)
		c, err := decodeRecord(p)
		if err != nil {
			return err
		}
		if w.v.meet(c.Checkpoint) && i > 0 {
			w.f = nil
		}
	}
	if i == 0 {
		w.begin()
	}
	if w.f != nil {
		w.add(i, r)
	}
	return nil
}

// begin starts the fold at the view's head: the live records of its
// checkpoint, if it has one.
func (w *walk) begin() {
	w.f = newFold(false)
	w.f.shared = true
	w.v.head = nil
	if cp := w.v.Checkpoint; cp != nil {
		w.v.head = cp.Live
	}
	w.owner = slices.Grow(w.owner[:0], len(w.v.head)+w.hint)
	for i := range w.v.head {
		w.owner = append(w.owner, w.f.add(&w.v.head[i]))
	}
}

// add folds the record of frame i if the view holds it.
func (w *walk) add(i int, r *Record) {
	if w.v.holds(r) {
		w.v.in.add(i)
		w.owner = append(w.owner, w.f.add(r))
	}
}

// finish returns the walked view, its fold and each position's slot.
// When a checkpoint past the first frame left the fold to it (or no
// frame started one), it folds the view from the last valid checkpoint:
// every frame but the checkpoints' is scanned a second time.
func (w *walk) finish() (View, *fold, []int32, error) {
	if w.f == nil {
		w.begin()
		clear(w.v.in)
		ckpts := w.ckpts
		for i, off := 0, len(fileMagic); i < w.frames; i++ {
			var p []byte
			p, off = nextFrame(w.v.image, off)
			if len(ckpts) > 0 && ckpts[0] == i {
				ckpts = ckpts[1:]
				continue
			}
			if err := scanRecord(p, &w.r); err != nil {
				return View{}, nil, nil, fmt.Errorf("%w: frame %d: %v", ErrCorrupt, i, err)
			}
			w.add(i, &w.r)
		}
	}
	w.v.n = len(w.owner) - len(w.v.head)
	return w.v, w.f, w.owner, nil
}

// Len is the number of records in the view.
func (v *View) Len() int { return len(v.head) + v.n }

// frames passes each record of the view read from the file to visit, as
// its position in the view and its payload, in order.
func (v *View) frames(visit func(pos int, p []byte) error) error {
	pos, end := len(v.head), v.Len()
	for i, off := 0, len(fileMagic); pos < end; i++ {
		var p []byte
		p, off = nextFrame(v.image, off)
		if v.in.has(i) {
			if err := visit(pos, p); err != nil {
				return err
			}
			pos++
		}
	}
	return nil
}

// Each passes every record of the view to visit, in order. A record read
// from a file shares the file image's bytes: visit clones the strings it
// keeps.
func (v *View) Each(visit func(r *Record)) error {
	for i := range v.head {
		visit(&v.head[i])
	}
	var r Record
	return v.frames(func(_ int, p []byte) error {
		if err := scanRecord(p, &r); err != nil {
			return err
		}
		visit(&r)
		return nil
	})
}

// Records returns the view's records, decoded in full; the slice
// source's view is returned as it is.
func (v *View) Records() ([]Record, error) {
	if v.n == 0 {
		return v.head, nil
	}
	out := append(make([]Record, 0, v.Len()), v.head...)
	err := v.frames(func(_ int, p []byte) error {
		r, err := decodeRecord(p)
		out = append(out, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Replay is a log's replay view folded in one pass: what restart
// recovery reads of the log (DESIGN.md §6l).
type Replay struct {
	View
	// Images summarizes every process in the view: Analyze's image with
	// Committed, Compensated and Failed left empty (Stands carries the
	// verdict), Resolved holding only locals still in Prepared, and
	// RedoCommit only the entries of the transactions in ReadReplay's keep.
	Images map[string]*ProcImage
	// Live holds, decoded in full and in view order, the records of
	// every process still open at the end of the view (imaged and not
	// terminated); Pos holds each one's position in the view.
	Live []Record
	Pos  []int
}

// ReadReplay reads log's replay view and folds it in one pass; only the
// records of processes still open at its end are then decoded in full. A
// FileLog is read from its file, through the walk its open made if
// nothing read the log since; any other log streams its Records through
// the same fold. The images keep the RedoCommit entries of the
// transactions in keep alone; with keep empty no candidate's transaction
// is read.
func ReadReplay(log Log, keep TxSet) (*Replay, error) {
	var rp Replay
	var f *fold
	var owner []int32 // each position's slot in the fold
	if fl, ok := log.(*FileLog); ok {
		w, err := fl.walked()
		if err != nil {
			return nil, err
		}
		if rp.View, f, owner, err = w.finish(); err != nil {
			return nil, err
		}
	} else {
		recs, err := log.Records()
		if err != nil {
			return nil, err
		}
		rp.View, f = viewOf(recs), newFold(false)
		owner = make([]int32, 0, rp.Len())
		for i := range rp.head {
			owner = append(owner, f.add(&rp.head[i]))
		}
	}
	rp.Images = f.images()
	// The fold marked the records that may redo a commit; keep chooses
	// among them now.
	redo := func(s int32, ptx PreparedTx) {
		im := &f.at(s).img
		im.RedoCommit = append(im.RedoCommit, f.own(ptx))
	}
	open := make(bitset, 0, (f.slots.Len()+63)/64) // the slots of the processes still open
	for i := range f.slots.Len() {
		if sl := f.slots.At(i); sl.imaged && !sl.img.Terminated {
			open.add(i)
		}
	}
	for pos := range rp.head {
		r, s := &rp.head[pos], owner[pos]
		if f.cands.has(pos) && keep.Has(r.Subsystem, r.Tx) {
			redo(s, r.tx())
		}
		if open.has(int(s)) {
			rp.Live, rp.Pos = append(rp.Live, *r), append(rp.Pos, pos)
		}
	}
	err := rp.frames(func(pos int, p []byte) error {
		switch s := owner[pos]; {
		case open.has(int(s)):
			r, err := decodeRecord(p)
			if err != nil {
				return err
			}
			if f.cands.has(pos) && keep.Has(r.Subsystem, r.Tx) {
				redo(s, r.tx())
			}
			rp.Live, rp.Pos = append(rp.Live, r), append(rp.Pos, pos)
		case len(keep) > 0 && f.cands.has(pos) && keep.hasID(txIDOf(p)):
			if ptx := txOf(p); keep.Has(ptx.Subsystem, ptx.Tx) {
				redo(s, ptx)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &rp, nil
}

// TxSet is a set of transactions, each named by its id and its
// subsystem: the transactions whose redo-commit entries ReadReplay keeps.
// It is indexed by id, so a record whose Tx is not in it is passed over
// before its strings are read.
type TxSet map[int64]txSubs

// txSubs are the subsystems that hold one transaction id of a TxSet:
// nearly always one, which costs no allocation of its own.
type txSubs struct {
	first string
	more  []string
}

// Add puts transaction tx at subsystem sub in the set.
func (s TxSet) Add(sub string, tx int64) {
	switch e, ok := s[tx]; {
	case !ok:
		s[tx] = txSubs{first: sub}
	case e.first != sub && !slices.Contains(e.more, sub):
		e.more = append(e.more, sub)
		s[tx] = e
	}
}

// Has reports whether transaction tx at subsystem sub is in the set.
func (s TxSet) Has(sub string, tx int64) bool {
	e, ok := s[tx]
	return ok && (e.first == sub || slices.Contains(e.more, sub))
}

// hasID reports whether some subsystem's transaction tx is in the set.
func (s TxSet) hasID(tx int64) bool {
	_, ok := s[tx]
	return ok
}

// bitset is a set of non-negative integers, one bit each.
type bitset []uint64

func (b *bitset) add(i int) {
	for len(*b) <= i/64 {
		*b = append(*b, 0)
	}
	(*b)[i/64] |= 1 << (i % 64)
}

func (b bitset) has(i int) bool { return i/64 < len(b) && b[i/64]&(1<<(i%64)) != 0 }

// fold is the per-record image transition applied across a view: the one
// implementation behind Analyze (full images) and ReadReplay (summaries).
// What an activity went through is kept per process in bit sets, and a
// prepared transaction in one map for the whole fold until it is
// resolved, so that a summary costs its process no allocation of its
// own; a full image also lists its activities.
type fold struct {
	slot  map[string]int32 // process -> index in slots
	slots chunk.List[foldSlot]
	// last is the slot of the last record folded, lastProc its process:
	// a process's records often come in runs.
	last     int32
	lastProc string
	// pending holds the prepared transactions not yet resolved.
	pending map[actKey]PreparedTx
	// wide holds the steps of activities whose local id no bit set has.
	wide map[actKey]uint8
	full bool
	// n counts the records folded: the position in the view of the next.
	// A summary marks in cands the positions of the records that may
	// redo a commit, which ReadReplay's keep chooses from; a full
	// image keeps every one.
	n     int
	cands bitset
	// shared marks records whose strings share a file image: what a
	// summary keeps of them is copied, into arena.
	shared bool
	arena  []byte
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

// arenaBlock is the size of the blocks a fold copies shared strings into.
const arenaBlock = 4 << 10

func newFold(full bool) *fold {
	return &fold{slot: make(map[string]int32), last: -1, pending: make(map[actKey]PreparedTx), full: full}
}

// at returns slot s.
func (f *fold) at(s int32) *foldSlot { return f.slots.At(int(s)) }

// mark notes that activity local of slot s, sl, took step.
func (f *fold) mark(sl *foldSlot, s int32, local, step int) {
	if uint(local) < 64 {
		sl.steps[step] |= 1 << local
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
		return f.at(s).steps[step]&(1<<local) != 0
	}
	return f.wide[actKey{s, local}]&(1<<step) != 0
}

func (r *Record) tx() PreparedTx {
	return PreparedTx{Subsystem: r.Subsystem, Tx: r.Tx, Service: r.Service}
}

// clone returns s, copied into the arena when it shares a file image: the
// ids of thousands of processes cost a few blocks, not an allocation each.
func (f *fold) clone(s string) string {
	if !f.shared || s == "" {
		return s
	}
	if len(s) > cap(f.arena)-len(f.arena) {
		f.arena = make([]byte, 0, max(arenaBlock, len(s)))
	}
	f.arena = append(f.arena, s...)
	return unsafe.String(&f.arena[len(f.arena)-len(s)], len(s))
}

// own returns ptx with strings the image does not share.
func (f *fold) own(ptx PreparedTx) PreparedTx {
	ptx.Subsystem, ptx.Service = f.clone(ptx.Subsystem), f.clone(ptx.Service)
	return ptx
}

// redo notes the transaction a record shows committed.
func (f *fold) redo(im *ProcImage, r *Record) {
	switch {
	case r.Tx == 0 || r.Subsystem == "":
	case f.full:
		im.RedoCommit = append(im.RedoCommit, r.tx())
	default:
		f.cands.add(f.n - 1)
	}
}

// resolve drops act, of slot sl, from the prepared transactions: a map
// operation only for a process that prepared one.
func (f *fold) resolve(sl *foldSlot, act actKey) {
	if sl.prepared {
		delete(f.pending, act)
	}
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
	f.n++
	s, ok := f.last, f.last >= 0 && r.Proc == f.lastProc
	if !ok {
		s, ok = f.slot[r.Proc]
	}
	if !ok {
		s = int32(f.slots.Len())
		proc := f.clone(r.Proc)
		f.slot[proc] = s
		f.slots.Append(foldSlot{img: ProcImage{Proc: proc}})
	}
	sl := f.at(s)
	f.last, f.lastProc = s, sl.img.Proc
	im := &sl.img
	act := actKey{s, r.Local}
	switch r.Type {
	case RecStart:
	case RecOutcome:
		switch r.Outcome {
		case "committed":
			f.list(&im.Committed, r.Local)
			f.mark(sl, s, r.Local, stepCommitted)
			f.resolve(sl, act)
			f.redo(im, r)
		case "prepared":
			sl.prepared = true
			f.pending[act] = r.tx()
		}
	case RecCompensate:
		f.list(&im.Compensated, r.Local)
		f.mark(sl, s, r.Local, stepCompensated)
		f.redo(im, r)
	case RecFailed:
		f.list(&im.Failed, r.Local)
	case RecAbortBegin:
		im.Aborting = true
	case RecDecision:
		im.Decided = true
	case RecResolved:
		sl.resolved = true
		f.mark(sl, s, r.Local, stepResolved)
		if r.Commit {
			f.list(&im.Committed, r.Local)
			f.mark(sl, s, r.Local, stepCommitted)
			f.redo(im, r)
		}
		f.resolve(sl, act)
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
	for i := range f.slots.Len() {
		sl := f.slots.At(i)
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
		im := &f.at(k.slot).img
		if steps&(1<<stepCommitted) != 0 && steps&(1<<stepCompensated) == 0 {
			im.Stands = true
		}
		if f.full && steps&(1<<stepResolved) != 0 {
			im.Resolved[k.local] = true
		}
	}
	for k, ptx := range f.pending {
		im := &f.at(k.slot).img
		if im.Prepared == nil {
			im.Prepared = make(map[int]PreparedTx)
		}
		im.Prepared[k.local] = f.own(ptx)
		if !f.full && f.took(k.slot, k.local, stepResolved) {
			if im.Resolved == nil {
				im.Resolved = make(map[int]bool)
			}
			im.Resolved[k.local] = true
		}
	}
	out := make(map[string]*ProcImage, f.slots.Len())
	for i := range f.slots.Len() {
		if sl := f.slots.At(i); sl.imaged {
			out[sl.img.Proc] = &sl.img
		}
	}
	return out
}
