package transport

// RefuseGSO makes the kernel refuse UDP_SEGMENT on u's socket, so that
// SendBatch meets the refusal and falls back to its loop over Send.
var RefuseGSO = refuseGSO
