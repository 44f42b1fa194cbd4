package serve_test

import (
	"context"
	"testing"
	"time"

	"laxgpu/internal/gateway"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// TestMultiDeviceSpreadsLoad pins where multi-device serving lives: a serve
// Server is one device, and a fleet of them is a gateway.NewFleet. A burst of
// identical GMM jobs landing at one instant spreads evenly over three nodes
// (equal estimates, headroom routing breaks ties toward the least-loaded),
// and every job reaches a terminal state.
func TestMultiDeviceSpreadsLoad(t *testing.T) {
	clock := serve.NewManualClock()
	gw, err := gateway.NewFleet(3, "", gateway.InprocConfig{Node: serve.NodeConfig{Scheduler: "LAX"}}, "",
		gateway.Options{Clock: clock, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close(context.Background(), time.Second)
	gw.TickProbes(0)

	bench, err := workload.FindBenchmark("GMM")
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[string]int{}
	var ids []int64
	for i := 0; i < 9; i++ {
		id, _, reason := gw.Submit(bench, bench.Deadline, gateway.Standard)
		if reason != "" && reason != serve.ReasonAdmission {
			t.Fatalf("submission %d refused at the gateway: %s", i, reason)
		}
		st, _ := gw.Status(id)
		perNode[st.Node]++
		ids = append(ids, id)
	}
	for _, name := range []string{"node0", "node1", "node2"} {
		if perNode[name] != 3 {
			t.Errorf("%s received %d jobs, want 3; spread %v", name, perNode[name], perNode)
		}
	}

	clock.Set(10 * sim.Second)
	gw.TickProbes(10 * sim.Second)
	for _, id := range ids {
		select {
		case <-gw.Done(id):
		default:
			t.Fatalf("job %d never reached a terminal state", id)
		}
	}
	if vs := gw.Check(10 * sim.Second); len(vs) != 0 {
		t.Fatalf("journal violations: %v", vs)
	}
}
