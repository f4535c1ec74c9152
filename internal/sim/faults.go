package sim

// Deterministic crash/restart schedules.
//
// A CrashSchedule pins a node failure to one transport call, named by its
// CallKey: its place on its own directed edge (the same key chaos plans
// see, see transport.RecordingPlan). Each edge's call sequence is a pure
// function of the workload and the plan even when fan-out legs run in
// parallel, so the same schedule replays the same crash on every run,
// composing with drop/duplicate plans keyed the same way. The node is
// fail-stop from there — every call to or from it fails permanently —
// until an explicit revive at a named barrier episode; transport.Chaos
// says when each of its edges goes down.

// CallKey names one transport call by its place on its directed edge:
// the call of message kind Kind (the payload's first byte) from node From
// to node To that had N earlier calls of that kind on that edge, retries
// included. N starts at 0.
type CallKey struct {
	From, To int
	Kind     byte
	N        int64
}

// Touches reports whether node is one end of the key's edge.
func (k CallKey) Touches(node int) bool { return k.From == node || k.To == node }

// CrashSchedule describes one deterministic node crash and, optionally,
// its restart point.
type CrashSchedule struct {
	// Node is the node that crashes.
	Node int
	// At is the call at which the crash arms. Its edge must have Node at
	// one end: that call fails, and so does every later call on its
	// directed edge; every other call involving Node fails from the join
	// of the outermost fan-out in flight (at once when none is), which is
	// also when the node reads as down (transport.Chaos).
	At CallKey
	// RestartEpoch, when non-zero, is the earliest barrier episode at
	// whose start the node rejoins the cluster (the DSM layer runs its
	// recovery protocol and revives the transport). The first episode
	// at or after RestartEpoch that begins with the node down triggers
	// the rejoin, so a crash call landing after the named episode still
	// recovers at the next barrier. Zero means the node never restarts.
	RestartEpoch int64
}

// RestartsAt reports whether the schedule revives its node at the start
// of barrier episode ep (assuming the node is down then; the caller
// checks liveness).
func (s CrashSchedule) RestartsAt(ep int64) bool {
	return s.RestartEpoch != 0 && ep >= s.RestartEpoch
}
