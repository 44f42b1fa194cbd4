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
	d     *Device
	eng   *sim.Engine
	rng   *rand.Rand
	scan  bool
	track bool
	// skipRecompute is the broken variant: a release that drops a no-room
	// entry leaves blocked as it was, as if roomFreed forgot to re-derive it.
	skipRecompute bool
	descs         []*KernelDesc
	insts         []*KernelInstance
	nextID        int

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

func newMemoRig(placement PlacementPolicy, seed int64, track, scan bool) *memoRig {
	cfg := DefaultConfig()
	cfg.Placement = placement
	eng := sim.NewEngine()
	r := &memoRig{d: New(cfg, eng), eng: eng, rng: rand.New(rand.NewSource(seed)),
		scan: scan, track: track, descs: memoDescs()}
	if track {
		r.d.EnableWGTracking()
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
		f := footprintOf(inst.Desc, r.d.cfg.WavefrontSize)
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
		if r.track {
			r.d.Kill(r.pick())
		}
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
// occupancy and round-robin cursor (which pin the CU every WG was placed on),
// the clock and CanFit's answer for every kernel shape.
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
// kills, CU retirements and stalls, under every placement policy, on both
// the tracked and the batched completion path — and after every step the
// memo device's blocked bits are exactly what its no-room list implies.
func TestNoRoomMemoMatchesScan(t *testing.T) {
	for _, placement := range []PlacementPolicy{FirstFit, BestFit, RoundRobin} {
		for _, track := range []bool{false, true} {
			name := fmt.Sprintf("%v/track=%v", placement, track)
			t.Run(name, func(t *testing.T) {
				seed := int64(placement)*2 + 17
				memo := newMemoRig(placement, seed, track, false)
				ref := newMemoRig(placement, seed, track, true)
				for i := 0; i < 10000; i++ {
					memo.step()
					ref.step()
					if got, want := memo.state(), ref.state(); got != want {
						t.Fatalf("step %d diverged:\n memo %s\n scan %s", i, got, want)
					}
					if err := blockedMatchesNoRoom(memo.d); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				if memo.memoHits < 1000 {
					t.Fatalf("the no-room list answered only %d dispatches; the test exercises nothing", memo.memoHits)
				}
			})
		}
	}
}

// TestStaleBlockedIsCaught runs the broken variant — roomFreed drops an entry
// but blocked keeps its old bits — and requires both guards above to notice:
// the blocked/noRoom equivalence breaks, and the device refuses a WG the
// scanning reference places.
func TestStaleBlockedIsCaught(t *testing.T) {
	broken := newMemoRig(FirstFit, 17, false, false)
	broken.skipRecompute = true
	ref := newMemoRig(FirstFit, 17, false, true)
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
