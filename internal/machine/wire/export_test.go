package wire

// OutQueueFrames is the per-peer outgoing queue capacity. Test-only.
const OutQueueFrames = outQueueFrames

// OutQueueLen returns the frames queued for process proc. Test-only.
func (t *Transport) OutQueueLen(proc int) int { return len(t.peers[proc].Load().out) }

// HoldDispatch parks this process's readers on their next data frame,
// so its peers' writers back up, until the returned function is called.
// Test-only.
func (t *Transport) HoldDispatch() (resume func()) {
	t.bmu.Lock()
	return t.bmu.Unlock
}

// Kill closes every peer connection without the goodbye handshake,
// simulating a crashed process: survivors must see a lost connection,
// not a clean departure. Test-only.
func (t *Transport) Kill() {
	for i := range t.peers {
		if pr := t.peers[i].Load(); pr != nil {
			pr.conn.Close()
		}
	}
}
