package cluster

// MailboxDepth reports, for the node currently in slot rank, how many
// messages its mailbox ever received and the deepest its queue ever got —
// the unexported bookkeeping the external mailbox-depth test asserts on.
func (rt *Runtime) MailboxDepth(rank int) (received, highWater int) {
	nd := rt.nodeAt(rank)
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.received, nd.highWater
}
