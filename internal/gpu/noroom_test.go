package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"laxgpu/internal/sim"
)

// memoRig drives one Device through a seeded random operation stream. Two
// rigs built from the same seed make the same choices as long as their
// devices behave the same; the reference rig (scan) forgets the no-room
// list before every dispatch, so its TryDispatch always scans the CUs — the
// code path before the memo existed.
type memoRig struct {
	d    *Device
	eng  *sim.Engine
	rng  *rand.Rand
	scan bool
	// skipRecompute is the broken variant: a release that drops a no-room
	// entry leaves blocked as it was, as if roomFreed forgot to re-derive it.
	skipRecompute bool
	descs         []*KernelDesc
	insts         []*KernelInstance
	nextID        int
	faults        *memoFaults // nil on a healthy rig

	placed   int // WGs placed by the step's dispatches (callbacks included)
	memoHits int // dispatches the no-room list answered without a scan
}

// memoDescs mixes thread-, wavefront-, VGPR- and LDS-bound footprints, some
// of which cover others, so the list is consulted across kernel types.
func memoDescs() []*KernelDesc {
	mk := func(name string, wgs, threads, vgpr, lds int, base sim.Time, mem float64) *KernelDesc {
		return &KernelDesc{Name: name, NumWGs: wgs, ThreadsPerWG: threads, VGPRBytesPerWG: vgpr,
			LDSBytesPerWG: lds, BaseWGTime: base, MemIntensity: mem, InstPerThread: 10}
	}
	return []*KernelDesc{
		mk("tiny", 40, 64, 1<<10, 256, 3*sim.Microsecond, 0.2),
		mk("wide", 12, 1024, 8<<10, 1<<10, 7*sim.Microsecond, 0.6),
		mk("full", 6, 2560, 16<<10, 0, 11*sim.Microsecond, 0.4),
		mk("vgpr", 20, 128, 96<<10, 0, 5*sim.Microsecond, 0.1),
		mk("vgpr-big", 9, 256, 200<<10, 512, 13*sim.Microsecond, 0.5),
		mk("lds", 16, 128, 2<<10, 24<<10, 4*sim.Microsecond, 0.8),
		mk("lds-big", 10, 192, 4<<10, 48<<10, 9*sim.Microsecond, 0.3),
	}
}

// memoFaults gives one attempt in six a hang, one an abort and one a 1.5x
// slowdown, keyed on (jobID + attempt) so a killed attempt may draw a
// different fate on its retry. drawn counts the attempts given each outcome.
type memoFaults struct{ drawn [4]int }

func (mf *memoFaults) KernelLaunch(_ sim.Time, jobID, _, attempt int) KernelFault {
	f := KernelFault{}
	switch (jobID + attempt) % 6 {
	case 0:
		f = KernelFault{Outcome: FaultHang}
	case 1:
		f = KernelFault{Outcome: FaultAbort}
	case 2:
		f = KernelFault{Outcome: FaultSlow, SlowFactor: 1.5}
	}
	mf.drawn[f.Outcome]++
	return f
}

// newMemoRig builds a rig; faulted attaches memoFaults to its device.
func newMemoRig(seed int64, faulted, scan bool) *memoRig {
	eng := sim.NewEngine()
	r := &memoRig{d: New(DefaultConfig(), eng), eng: eng, rng: rand.New(rand.NewSource(seed)),
		scan: scan, descs: memoDescs()}
	if faulted {
		r.faults = &memoFaults{}
		r.d.SetFaultInjector(r.faults)
	}
	for i := 0; i < 8; i++ {
		r.insts = append(r.insts, r.fresh())
	}
	// Like the CP, refill from inside the completion callback.
	r.d.OnWGComplete(func(*KernelInstance) { r.dispatch(r.pick(), -1) })
	return r
}

func (r *memoRig) fresh() *KernelInstance {
	inst := NewKernelInstance(r.descs[r.rng.Intn(len(r.descs))], r.nextID, 0, 0)
	r.nextID++
	inst.MarkReady(r.eng.Now())
	return inst
}

// pick returns a random live instance, replacing a finished one.
func (r *memoRig) pick() *KernelInstance {
	i := r.rng.Intn(len(r.insts))
	if r.insts[i].Done() {
		r.insts[i] = r.fresh()
	}
	return r.insts[i]
}

// forgetNoRoom empties the no-room list and the blocked bits derived from it.
func forgetNoRoom(d *Device) {
	d.noRoom = d.noRoom[:0]
	clear(d.blocked)
}

// blockedMatchesNoRoom checks blocked[c] ⇔ some noRoom entry is covered by
// class c, re-derived for every class.
func blockedMatchesNoRoom(d *Device) error {
	for c, f := range d.classes {
		if d.blocked[c] != d.refused(f) {
			return fmt.Errorf("class %d %+v: blocked = %v, but noRoom = %+v", c, f, d.blocked[c], d.noRoom)
		}
	}
	return nil
}

func (r *memoRig) dispatch(inst *KernelInstance, limit int) {
	if r.scan {
		forgetNoRoom(r.d)
	} else if !r.d.Stalled() && inst.Dispatchable() {
		f := footprintOf(inst.Desc)
		for _, g := range r.d.noRoom {
			if f.covers(g) {
				r.memoHits++
				break
			}
		}
	}
	r.placed += r.d.TryDispatch(inst, limit)
}

func (r *memoRig) step() {
	r.placed = 0
	if r.skipRecompute {
		before, entries := append([]bool(nil), r.d.blocked...), len(r.d.noRoom)
		defer func() {
			if len(r.d.noRoom) < entries {
				for c, was := range before {
					r.d.blocked[c] = r.d.blocked[c] || was
				}
			}
		}()
	}
	switch op := r.rng.Intn(100); {
	case op < 50:
		r.dispatch(r.pick(), []int{-1, -1, 1, 2, 3}[r.rng.Intn(5)])
	case op < 88:
		r.eng.Step() // one WG completion (or batch of them), refills included
	case op < 92:
		r.d.Kill(r.pick())
	case op < 93:
		if r.d.ActiveCUs() > 3 {
			r.d.RetireCUs(1)
		}
	default:
		r.d.Stall(sim.Time(1+r.rng.Intn(4)) * sim.Microsecond)
		r.eng.Schedule(r.d.StallEndsAt(), func() {}) // so time can pass the stall
	}
}

// state renders everything placement can observe: the device's per-CU
// occupancy (which pins the CU every WG was placed on), the clock and
// CanFit's answer for every kernel shape.
func (r *memoRig) state() string {
	s := fmt.Sprintf("t=%d placed=%d active=%d | %v", r.eng.Now(), r.placed, r.d.ActiveWGs(), r.d)
	s += " | fit"
	for _, k := range r.descs {
		s += fmt.Sprintf(" %v", r.d.CanFit(k))
	}
	return s
}

// TestNoRoomMemoMatchesScan is the memo's property test: a device answering
// "no room" from its list and one that always scans stay in the same state
// through 10 000 random dispatches (limited and unlimited), WG completions,
// kills, CU retirements and stalls, from six seeds — and after every step
// the memo device's blocked bits are exactly what its no-room list implies.
// Subtests with track=true attach a fault injector, so WGs of hung, aborting
// and slowed attempts also hold and release room through the batches;
// track=false runs healthy. The first-fit prefix names the one placement
// rule the walks run under.
func TestNoRoomMemoMatchesScan(t *testing.T) {
	for _, track := range []bool{false, true} {
		t.Run(fmt.Sprintf("first-fit/track=%v", track), func(t *testing.T) {
			for seed := int64(17); seed <= 22; seed++ {
				memo := newMemoRig(seed, track, false)
				ref := newMemoRig(seed, track, true)
				for i := 0; i < 10000; i++ {
					memo.step()
					ref.step()
					if got, want := memo.state(), ref.state(); got != want {
						t.Fatalf("seed %d step %d diverged:\n memo %s\n scan %s", seed, i, got, want)
					}
					if err := blockedMatchesNoRoom(memo.d); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, i, err)
					}
				}
				if memo.memoHits < 1000 {
					t.Fatalf("seed %d: the no-room list answered only %d dispatches; the test exercises nothing", seed, memo.memoHits)
				}
				if track {
					for _, o := range []FaultOutcome{FaultHang, FaultAbort, FaultSlow} {
						if n := memo.faults.drawn[o]; n < 20 {
							t.Fatalf("seed %d: only %d attempts drew %v; the faulted run exercises nothing", seed, n, o)
						}
					}
				}
			}
		})
	}
}

// TestStaleBlockedIsCaught runs the broken variant — roomFreed drops an entry
// but blocked keeps its old bits — and requires both guards above to notice:
// the blocked/noRoom equivalence breaks, and the device refuses a WG the
// scanning reference places.
func TestStaleBlockedIsCaught(t *testing.T) {
	broken := newMemoRig(17, false, false)
	broken.skipRecompute = true
	ref := newMemoRig(17, false, true)
	invariant, diverged := false, false
	for i := 0; i < 10000 && !diverged; i++ {
		broken.step()
		ref.step()
		invariant = invariant || blockedMatchesNoRoom(broken.d) != nil
		diverged = broken.state() != ref.state()
	}
	if !invariant || !diverged {
		t.Fatalf("skipping the blocked recompute went unnoticed: invariant broken=%v, diverged from scan=%v", invariant, diverged)
	}
}

// TestNoRoomClearedByTheFreeingRelease: a footprint refused for CU-wide
// VGPR (threads are nearly all free) is answered from the list, does not
// block a lighter footprint, and is placeable again right after the one
// release that frees the registers — on that CU.
func TestNoRoomClearedByTheFreeingRelease(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	vgpr := func(name string, wgs int, base sim.Time) *KernelInstance {
		k := testKernel(name, wgs, 64, base, 0)
		k.VGPRBytesPerWG = 127 << 10 // two per CU (2 KB to spare), 16 device-wide
		inst := NewKernelInstance(k, 0, 0, 0)
		inst.MarkReady(0)
		return inst
	}
	long, short, blocked := vgpr("long", 15, sim.Millisecond), vgpr("short", 1, sim.Microsecond), vgpr("blocked", 1, sim.Microsecond)
	if got := d.TryDispatch(long, -1) + d.TryDispatch(short, -1); got != 16 {
		t.Fatalf("placed %d VGPR-bound WGs, want 16", got)
	}
	if d.TryDispatch(blocked, -1) != 0 || len(d.noRoom) != 1 {
		t.Fatalf("full register files: noRoom = %v, want the one refused footprint", d.noRoom)
	}
	light := NewKernelInstance(testKernel("light", 4, 64, sim.Microsecond/2, 0), 1, 0, 0)
	light.MarkReady(0)
	if d.TryDispatch(light, -1) != 4 {
		t.Fatal("a footprint that does not cover the refused one was blocked")
	}
	if d.TryDispatch(blocked, -1) != 0 || len(d.noRoom) != 1 {
		t.Fatalf("second refusal should come from the list: noRoom = %v", d.noRoom)
	}
	for short.CompletedWGs() == 0 { // light's WGs finish first and free 1 KB each: not enough
		if len(d.noRoom) != 1 {
			t.Fatal("a release that did not make room cleared the list")
		}
		eng.Step()
	}
	if len(d.noRoom) != 0 {
		t.Fatalf("the freeing release left noRoom = %v", d.noRoom)
	}
	if d.TryDispatch(blocked, -1) != 1 || d.cus[7].activeWGs != 2 {
		t.Fatal("refused footprint not placed on the freed CU")
	}
}
