package mpi

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// simMetrics holds the simulator's observability handles: message and
// collective counts, one-sided operations deferred into epochs and applied
// at epoch close, and epochs opened/closed per synchronization mode. A nil
// *simMetrics (no registry configured) makes every method a no-op, so the
// call sites are unconditional.
//
// Counters on per-call paths are sharded by rank (obs.RankCounter) so that
// rank goroutines do not contend on the instrumentation — the simulator is
// the substrate of the paper's overhead experiments (§VII-B), and the
// metrics must not perturb the numbers they expose.
type simMetrics struct {
	msgsSent    *obs.RankCounter
	msgsRecv    *obs.RankCounter
	collectives [trace.KindCount]*obs.RankCounter
	rmaDeferred *obs.RankCounter
	rmaApplied  *obs.Counter
	epochOpened map[string]*obs.Counter
	epochClosed map[string]*obs.Counter

	faultsInjected map[string]*obs.Counter // by fault kind
	rankFailures   *obs.Counter
}

// Epoch synchronization modes, the label values of
// mcchecker_sim_epochs_total.
const (
	epochFence        = "fence"
	epochLock         = "lock"
	epochLockAll      = "lockall"
	epochPSCWAccess   = "pscw_access"
	epochPSCWExposure = "pscw_exposure"
)

// Fault kinds, the label values of mcchecker_faults_injected_total.
const (
	faultCrash   = "crash"
	faultYield   = "yield"
	faultReorder = "reorder"
	faultDelay   = "delay"
)

func newSimMetrics(reg *obs.Registry) *simMetrics {
	if reg == nil {
		return nil
	}
	m := &simMetrics{
		msgsSent:    reg.RankCounter("mcchecker_sim_messages_total", "dir", "sent"),
		msgsRecv:    reg.RankCounter("mcchecker_sim_messages_total", "dir", "received"),
		rmaDeferred: reg.RankCounter("mcchecker_sim_rma_ops_total", "state", "deferred"),
		rmaApplied:  reg.Counter("mcchecker_sim_rma_ops_total", "state", "applied"),
		epochOpened: map[string]*obs.Counter{},
		epochClosed: map[string]*obs.Counter{},
	}
	for k := 0; k < trace.KindCount; k++ {
		if kind := trace.Kind(k); kind.IsCollective() {
			m.collectives[k] = reg.RankCounter("mcchecker_sim_collectives_total", "op", kind.String())
		}
	}
	for _, mode := range []string{epochFence, epochLock, epochLockAll, epochPSCWAccess, epochPSCWExposure} {
		m.epochOpened[mode] = reg.Counter("mcchecker_sim_epochs_total", "mode", mode, "event", "opened")
		m.epochClosed[mode] = reg.Counter("mcchecker_sim_epochs_total", "mode", mode, "event", "closed")
	}
	m.faultsInjected = map[string]*obs.Counter{}
	for _, kind := range []string{faultCrash, faultYield, faultReorder, faultDelay} {
		m.faultsInjected[kind] = reg.Counter("mcchecker_faults_injected_total", "kind", kind)
	}
	m.rankFailures = reg.Counter("mcchecker_sim_rank_failures_total")
	return m
}

// faultInjected counts one injected fault of the given kind.
func (m *simMetrics) faultInjected(kind string) {
	if m == nil {
		return
	}
	m.faultsInjected[kind].Inc()
}

// rankFailed counts one rank death (injected crash or cascaded failure).
func (m *simMetrics) rankFailed() {
	if m == nil {
		return
	}
	m.rankFailures.Inc()
}

// record tallies one MPI call on its classifying counter (messages and
// collectives; epochs and RMA queues are counted at their state
// transitions, not per call).
func (m *simMetrics) record(kind trace.Kind, rank int32) {
	if m == nil {
		return
	}
	switch kind {
	case trace.KindSend, trace.KindIsend:
		m.msgsSent.Inc(rank)
	case trace.KindRecv, trace.KindIrecv:
		m.msgsRecv.Inc(rank)
	default:
		if kind.IsCollective() {
			m.collectives[kind].Inc(rank)
		}
	}
}

// rmaQueued counts a one-sided operation deferred into an open epoch.
func (m *simMetrics) rmaQueued(rank int32) {
	if m == nil {
		return
	}
	m.rmaDeferred.Inc(rank)
}

// rmaFlushed counts operations applied at an epoch close or flush.
func (m *simMetrics) rmaFlushed(n int) {
	if m == nil || n == 0 {
		return
	}
	m.rmaApplied.Add(int64(n))
}

// epochOpen / epochClose count epoch transitions per synchronization mode.
func (m *simMetrics) epochOpen(mode string) {
	if m == nil {
		return
	}
	m.epochOpened[mode].Inc()
}

func (m *simMetrics) epochClose(mode string) {
	if m == nil {
		return
	}
	m.epochClosed[mode].Inc()
}
