package policylab

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/workload"
)

// mkRecord builds a distinguishable conflict record for framing tests.
func mkRecord(t, node int) sim.ConflictRecord {
	return sim.ConflictRecord{
		Time: t, Node: mesh.NodeID(node), Winners: 1, Deflected: 1,
		DistBefore: 7, DistAfter: 6,
		Contenders: []sim.ConflictPacket{
			{ID: 10 * t, Dst: mesh.NodeID(node + 1), Age: 3, Dist: 4, GoodCount: 1, Restricted: true, TypeA: true, Advanced: true},
			{ID: 10*t + 1, Dst: mesh.NodeID(node + 2), Age: 1, Dist: 2, GoodCount: 2, Dir: 1},
		},
	}
}

func TestTraceRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	hdr := TraceHeader{Dim: 2, Side: 8, Wrap: true, Policy: "restricted-priority", Seed: 42}
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	var want []sim.ConflictRecord
	for i := 0; i < 17; i++ {
		rec := mkRecord(i, 100+i)
		want = append(want, rec)
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	got, recs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	hdr.Trace = traceName
	hdr.Version = TraceVersion
	if got != hdr {
		t.Fatalf("header mismatch: got %+v want %+v", got, hdr)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("records mismatch:\ngot  %+v\nwant %+v", recs, want)
	}
}

// TestTraceTornTail checks the crash-tolerance contract shared with the
// journal and WAL formats: a torn final line is chopped silently, while a
// bad line followed by more decodable records is corruption.
func TestTraceTornTail(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, TraceHeader{Dim: 2, Side: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := mkRecord(i, i)
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Chop the final record mid-line: reads as 2 records, no error.
	torn := full[:len(full)-10]
	_, recs, err := ReadTrace(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail should be tolerated, got %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn tail: got %d records, want 2", len(recs))
	}

	// Corrupt a middle record: decodable records follow, so this is an error.
	lines := bytes.Split(full, []byte("\n"))
	lines[1][9] ^= 0x01 // flip a payload byte under the CRC
	_, _, err = ReadTrace(bytes.NewReader(bytes.Join(lines, []byte("\n"))))
	if err == nil || !errors.Is(err, ErrBadTrace) {
		t.Fatalf("mid-file corruption should fail with ErrBadTrace, got %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("want corrupt-record error, got %v", err)
	}
}

func TestTraceRejectsForeignHeader(t *testing.T) {
	_, _, err := ReadTrace(strings.NewReader("{\"trace\":\"something-else\",\"version\":1}\n"))
	if err == nil || !errors.Is(err, ErrBadTrace) {
		t.Fatalf("foreign header should fail with ErrBadTrace, got %v", err)
	}
	_, _, err = ReadTrace(strings.NewReader(""))
	if err == nil {
		t.Fatal("empty input should fail")
	}
}

// TestRecorderRingWrap checks that the ring keeps the most recent records,
// the aggregate counters keep counting past wrap-around, and the retained
// records do not alias each other or the caller's record.
func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec := mkRecord(i, i)
		r.OnConflict(&rec)
		// Mutate the caller's record afterward; retained copies must not move.
		rec.Contenders[0].ID = -1
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		wantT := 6 + i
		if rec.Time != wantT {
			t.Errorf("record %d: time %d, want %d (oldest-first window)", i, rec.Time, wantT)
		}
		if rec.Contenders[0].ID != 10*wantT {
			t.Errorf("record %d: contender aliased or stale: id %d, want %d", i, rec.Contenders[0].ID, 10*wantT)
		}
	}
	total, contenders, deflected, db, da := r.Stats()
	if total != 10 || contenders != 20 || deflected != 10 || db != 70 || da != 60 {
		t.Fatalf("stats = (%d %d %d %d %d), want (10 20 10 70 60)", total, contenders, deflected, db, da)
	}
}

// TestTracedRunParity is the satellite's bit-identity requirement: a run
// with a conflict observer attached must be step-for-step identical to the
// same run without one. The observer only reads engine state after moves
// are applied; any divergence means the tap perturbed the simulation.
func TestTracedRunParity(t *testing.T) {
	m := mesh.MustNew(2, 8)
	for _, polSpec := range []string{"restricted", "oldest", "weighted:age=1,restrict=2"} {
		t.Run(polSpec, func(t *testing.T) {
			mk := func(traced bool) (*sim.Engine, *Recorder) {
				rng := rand.New(rand.NewSource(5))
				pkts, err := workload.UniformRandom(m, 70, rng)
				if err != nil {
					t.Fatal(err)
				}
				pol, err := spec.NewPolicy(polSpec)
				if err != nil {
					t.Fatal(err)
				}
				e, err := sim.New(m, pol, pkts, sim.Options{Seed: 6, Validation: sim.ValidateGreedy})
				if err != nil {
					t.Fatal(err)
				}
				var rec *Recorder
				if traced {
					rec = NewRecorder(64)
					e.SetConflictObserver(rec)
				}
				return e, rec
			}
			plain, _ := mk(false)
			traced, rec := mk(true)
			for !plain.Done() && !plain.Livelocked() {
				if err := plain.Step(); err != nil {
					t.Fatal(err)
				}
				if err := traced.Step(); err != nil {
					t.Fatal(err)
				}
				if hp, ht := plain.StateHash(), traced.StateHash(); hp != ht {
					t.Fatalf("tracing perturbed the run at step %d: %#x vs %#x", plain.Time(), hp, ht)
				}
			}
			if traced.Done() != plain.Done() || traced.Time() != plain.Time() {
				t.Fatal("tracing changed the run length")
			}
			if rec.Total() == 0 {
				t.Fatal("no conflicts recorded on a 70-packet batch; the tap is not firing")
			}
		})
	}
}

// TestConflictRecordContents spot-checks the semantic fields of emitted
// records against the engine's packet state.
func TestConflictRecordContents(t *testing.T) {
	m := mesh.MustNew(2, 6)
	rng := rand.New(rand.NewSource(3))
	pkts, err := workload.UniformRandom(m, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := spec.NewPolicy("restricted")
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(m, pol, pkts, sim.Options{Seed: 4, Validation: sim.ValidateGreedy})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	e.SetConflictObserver(sim.ConflictObserverFunc(func(rec *sim.ConflictRecord) {
		if len(rec.Contenders) < 2 {
			t.Fatalf("conflict with %d contenders", len(rec.Contenders))
		}
		if rec.Deflected < 1 {
			t.Fatalf("conflict with no deflection at t=%d node %d", rec.Time, rec.Node)
		}
		if rec.Winners+rec.Deflected != len(rec.Contenders) {
			t.Fatalf("winners %d + deflected %d != contenders %d", rec.Winners, rec.Deflected, len(rec.Contenders))
		}
		if rec.Time != e.Time()-1 {
			// The observer fires inside Step after e.time advanced to t+1;
			// the record carries the step that made the moves, t.
			t.Fatalf("record time %d, engine mid-step time %d", rec.Time, e.Time())
		}
		var advanced int
		for _, c := range rec.Contenders {
			if c.Advanced {
				advanced++
			}
			if c.Age < 0 || c.Dist < 0 {
				t.Fatalf("negative age/dist: %+v", c)
			}
		}
		if advanced != rec.Winners {
			t.Fatalf("advanced flags %d != winners %d", advanced, rec.Winners)
		}
		checked++
	}))
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no conflicts observed")
	}
}

// replaySetup runs a fresh adversary run to a checkpoint for replay tests.
func replaySetup(t *testing.T) (*sim.Snapshot, *spec.ArrivalSpec) {
	t.Helper()
	m := mesh.MustNew(2, 8)
	pol, err := spec.NewPolicy("restricted")
	if err != nil {
		t.Fatal(err)
	}
	as, err := spec.ParseArrivalSpec("adversary:rho=2,sigma=6,until=120")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.BuildArrivals(as, m)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(m, pol, nil, sim.Options{Seed: 11, MaxSteps: 4000, Validation: sim.ValidateGreedy})
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(src)
	for e.Time() < 60 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap, as
}

// TestReplayDeterministic is the acceptance criterion: the same checkpoint
// and the same alternative order must produce bit-identical divergence
// scores on repeated runs.
func TestReplayDeterministic(t *testing.T) {
	snap, as := replaySetup(t)
	cfg := ReplayConfig{
		Baseline:     "restricted",
		Alternatives: []string{"oldest", "nearest", "weighted:age=1,restrict=2"},
		Steps:        64,
		Arrivals:     as,
	}
	rep1, err := Replay(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Replay(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("replay not deterministic:\nfirst  %+v\nsecond %+v", rep1, rep2)
	}
	if rep1.Baseline.Steps == 0 {
		t.Fatal("baseline arm executed no steps")
	}
	if len(rep1.Alternatives) != 3 {
		t.Fatalf("want 3 alternatives, got %d", len(rep1.Alternatives))
	}
}

// TestReplayBaselineSelfConsistent: replaying the window under the original
// policy must reproduce the original execution exactly — the baseline arm
// of a replay diverges from itself nowhere.
func TestReplayBaselineSelfConsistent(t *testing.T) {
	snap, as := replaySetup(t)
	rep, err := Replay(snap, ReplayConfig{
		Baseline:     "restricted",
		Alternatives: []string{"restricted"},
		Steps:        64,
		Arrivals:     as,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Alternatives[0]
	if d.FirstDiverge != -1 {
		t.Fatalf("baseline-vs-baseline diverged at %d", d.FirstDiverge)
	}
	if d.PotentialL1 != 0 || d.DeliveredDelta != 0 || d.DeflectionsDelta != 0 {
		t.Fatalf("baseline-vs-baseline has nonzero divergence: %+v", d)
	}
	if d.FinalHash != rep.Baseline.FinalHash {
		t.Fatal("final hashes differ for identical arms")
	}
}

// TestReplayGuards checks the error paths: wrong baseline policy, missing
// arrivals for an injector-carrying checkpoint, and spurious arrivals for a
// batch checkpoint.
func TestReplayGuards(t *testing.T) {
	snap, as := replaySetup(t)
	if _, err := Replay(snap, ReplayConfig{Baseline: "oldest", Arrivals: as}); err == nil {
		t.Fatal("wrong baseline policy should be rejected")
	}
	if _, err := Replay(snap, ReplayConfig{Baseline: "restricted"}); err == nil {
		t.Fatal("missing arrivals for an injector checkpoint should be rejected")
	}

	// Batch checkpoint: arrivals must be rejected.
	m := mesh.MustNew(2, 6)
	pol, err := spec.NewPolicy("restricted")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pkts, err := workload.UniformRandom(m, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(m, pol, pkts, sim.Options{Seed: 3, Validation: sim.ValidateGreedy})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	bsnap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bsnap, ReplayConfig{Baseline: "restricted", Arrivals: as}); err == nil {
		t.Fatal("arrivals for a batch checkpoint should be rejected")
	}
	if _, err := Replay(bsnap, ReplayConfig{Baseline: "restricted", Alternatives: []string{"oldest"}}); err != nil {
		t.Fatalf("batch replay failed: %v", err)
	}
}

// TestRecorderSpillErrorLatched: the first spill error is reported and
// recording continues.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > 40 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

func TestRecorderSpillErrorLatched(t *testing.T) {
	fw := &failWriter{}
	w, err := NewWriter(fw, TraceHeader{Dim: 2, Side: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(8)
	r.Spill(w)
	for i := 0; i < 5; i++ {
		rec := mkRecord(i, i)
		r.OnConflict(&rec)
		w.Flush()
	}
	if r.Err() == nil {
		t.Fatal("spill error not latched")
	}
	if r.Total() != 5 {
		t.Fatalf("recording stopped after spill error: total %d", r.Total())
	}
}

// TestDecodeLineRejectsLooseCRC: a trace line's CRC field is exactly eight
// lowercase hex digits. fmt.Sscanf's %08x, which read it before, also took
// the field space-padded (" 000abcd") or left-aligned ("abcd    "), and
// read "0x00abcd" as 0. The payload is a record whose CRC-32 is below
// 1<<16, so the loose renderings would read back as the right value.
func TestDecodeLineRejectsLooseCRC(t *testing.T) {
	var payload []byte
	var crc uint32
	for t0 := 0; payload == nil; t0++ {
		rec := mkRecord(t0, 3)
		p, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if c := crc32.ChecksumIEEE(p); c < 1<<16 {
			payload, crc = p, c
		}
	}
	line := func(field string) []byte { return append([]byte(field+" "), payload...) }
	if _, ok := decodeLine(line(fmt.Sprintf("%08x", crc))); !ok {
		t.Fatal("canonical line refused")
	}
	for _, field := range []string{fmt.Sprintf(" %07x", crc), fmt.Sprintf("%-8x", crc), fmt.Sprintf("0x%06x", crc)} {
		if _, ok := decodeLine(line(field)); ok {
			t.Errorf("CRC field %q accepted", field)
		}
	}
}
