package experiments

import "testing"

// A small load run accounts for every job, each poison job ends failed
// after its one run and every other job ends done, and the daemon
// drains. Client 1's first draw is below FaultFraction/2, so the run
// always submits a poison job.
func TestServeLoadPoisonJobsFail(t *testing.T) {
	res, err := ServeLoad(ServeLoadConfig{Clients: 3, Jobs: 24, Workers: 2, FaultFraction: 0.5, Ops: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Poison == 0 || res.Failed != res.Poison || res.Done+res.Failed != 24 || !res.DrainedCleanly {
		t.Fatalf("load result: %+v", res)
	}
}
