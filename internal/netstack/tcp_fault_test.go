package netstack

import (
	"errors"
	"testing"

	"cornflakes/internal/core"
	"cornflakes/internal/mem"
	"cornflakes/internal/nic"
	"cornflakes/internal/sim"
	"cornflakes/internal/wire"
)

// Regression tests for the retransmission-path bugs found under fault
// injection. Each reproduces its pre-fix failure deterministically: on the
// seed code, TestTCPRTORearmAfterFailedRetransmit stalls (segment never
// delivered), TestTCPAckSendErrorReleasesBuffer leaks a pinned slot, and
// TestTCPEmptyDataSegmentDropped panics in the zero-byte allocator call.

var errTxRingFull = errors.New("tx ring full")

// failNextSends returns an InjectSendErr hook refusing the next n posts.
func failNextSends(n int) func() error {
	return func() error {
		if n > 0 {
			n--
			return errTxRingFull
		}
		return nil
	}
}

// TestTCPRTORearmAfterFailedRetransmit: the first data frame is lost on
// the wire and the first retransmission attempt is refused by the NIC
// (TX ring full). Pre-fix, onRTO only re-armed the timer when transmit
// succeeded, so the connection stalled forever with the segment unacked;
// post-fix the next timeout retries and the transfer completes.
func TestTCPRTORearmAfterFailedRetransmit(t *testing.T) {
	eng, ca, cb, na, _, pa := tcpPair()
	delivered := 0
	cb.SetRecvHandler(func(p *mem.Buf) { delivered++; p.DecRef() })

	drops := 0
	pa.Interceptor = dropIf(func(data []byte) bool {
		if drops == 0 && len(data) > TCPHeaderLen {
			drops++
			return true
		}
		return false
	})

	msg := core.NewMessage(testSchema(), na.ctx)
	msg.SetInt(0, 42)
	if err := ca.SendObject(msg); err != nil {
		t.Fatal(err)
	}
	msg.Release()
	// The first transmission has been posted (and will be lost); now make
	// the NIC refuse the next post, which is the first RTO retransmit.
	pa.InjectSendErr = failNextSends(1)

	eng.Run()

	if ca.RtxSendErrors != 1 {
		t.Errorf("RtxSendErrors = %d, want 1", ca.RtxSendErrors)
	}
	if pa.RefusedSends != 1 {
		t.Errorf("port RefusedSends = %d, want 1", pa.RefusedSends)
	}
	if ca.Retransmits < 2 {
		t.Errorf("Retransmits = %d, want >= 2 (refused attempt plus the retry)", ca.Retransmits)
	}
	// The pre-fix stall: engine drains with the segment still in flight
	// and nothing delivered.
	if ca.Unacked() != 0 {
		t.Fatalf("connection stalled: %d segments unacked after drain", ca.Unacked())
	}
	if delivered != 1 {
		t.Fatalf("delivered %d messages, want 1", delivered)
	}
}

// TestTCPAckSendErrorReleasesBuffer: the receiver's first ACK post is
// refused by the NIC. Pre-fix the ACK buffer's reference was never
// dropped — one pinned slot leaked per failed ACK; post-fix the slot is
// released and the error surfaces in AckSendErrors.
func TestTCPAckSendErrorReleasesBuffer(t *testing.T) {
	eng, ca, cb, na, nb, _ := tcpPair()
	delivered := 0
	cb.SetRecvHandler(func(p *mem.Buf) { delivered++; p.DecRef() })

	// Refuse the receiver's first post: that is the ACK for the first data
	// frame (the receiver sends nothing else).
	cb.Port.InjectSendErr = failNextSends(1)

	msg := core.NewMessage(testSchema(), na.ctx)
	msg.SetInt(0, 7)
	if err := ca.SendObject(msg); err != nil {
		t.Fatal(err)
	}
	msg.Release()
	eng.Run()

	if cb.AckSendErrors != 1 {
		t.Errorf("AckSendErrors = %d, want 1", cb.AckSendErrors)
	}
	if delivered != 1 {
		t.Errorf("delivered %d, want 1", delivered)
	}
	// The lost ACK forces a retransmit, whose duplicate is re-acked.
	if ca.Retransmits == 0 {
		t.Error("sender never retransmitted after the ACK was refused")
	}
	if got := nb.alloc.Stats().SlotsInUse; got != 0 {
		t.Errorf("receiver pinned slots in use after drain = %d, want 0 (ACK buffer leak)", got)
	}
	if got := na.alloc.Stats().SlotsInUse; got != 0 {
		t.Errorf("sender pinned slots in use after drain = %d, want 0", got)
	}
}

// TestTCPRTOBackoffCapped: under a long loss burst the backoff must stop
// doubling at maxRTO, so recovery after the burst is prompt instead of
// seconds of virtual time out.
func TestTCPRTOBackoffCapped(t *testing.T) {
	eng, ca, cb, na, _, pa := tcpPair()
	cb.SetRecvHandler(func(p *mem.Buf) { p.DecRef() })

	// Drop the first 8 data frames: initial send plus 7 retransmits.
	drops := 0
	pa.Interceptor = dropIf(func(data []byte) bool {
		if drops < 8 && len(data) > TCPHeaderLen {
			drops++
			return true
		}
		return false
	})
	msg := core.NewMessage(testSchema(), na.ctx)
	msg.SetInt(0, 9)
	if err := ca.SendObject(msg); err != nil {
		t.Fatal(err)
	}
	msg.Release()
	start := eng.Now()
	eng.Run()

	if ca.rto > maxRTO {
		t.Errorf("rto = %v, exceeds cap %v", ca.rto, maxRTO)
	}
	if ca.Unacked() != 0 {
		t.Fatal("segment never recovered after burst")
	}
	// Uncapped doubling would need 100us * (2^9 - 1) ≈ 51 ms to reach the
	// 8th retransmit; capped backoff recovers within a few maxRTO periods.
	elapsed := eng.Now() - start
	if elapsed > 20*sim.Millisecond {
		t.Errorf("recovery took %v — backoff looks uncapped", elapsed)
	}
	if ca.Retransmits < 8 {
		t.Errorf("Retransmits = %d, want >= 8", ca.Retransmits)
	}
}

// TestTCPEmptyDataSegmentDropped: a data-flagged segment with a zero-byte
// payload must be counted and dropped, not delivered. Pre-fix this path
// called Alloc(0), which panics.
func TestTCPEmptyDataSegmentDropped(t *testing.T) {
	eng, _, cb, _, _, _ := tcpPair()
	delivered := 0
	cb.SetRecvHandler(func(p *mem.Buf) { delivered++; p.DecRef() })

	// Craft a header-only frame carrying the data flag at exactly the
	// receiver's expected sequence number.
	frame := make([]byte, TCPHeaderLen)
	frame[0] = 0x42
	wire.PutU32(frame[tcpOffSeq:], cb.recvSeq)
	wire.PutU32(frame[tcpOffAck:], cb.sendSeq)
	frame[tcpOffFlags] = flagData | flagAck

	before := cb.recvSeq
	cb.onFrame(&nic.Frame{Data: frame})
	eng.Run()

	if cb.EmptyDataSegs != 1 {
		t.Errorf("EmptyDataSegs = %d, want 1", cb.EmptyDataSegs)
	}
	if delivered != 0 {
		t.Errorf("empty segment delivered %d payloads, want 0", delivered)
	}
	if cb.recvSeq != before {
		t.Errorf("recvSeq advanced by empty segment: %d -> %d", before, cb.recvSeq)
	}
}

// TestTCPSendObjectRefusedRollsBack: a refused first transmission must
// roll the segment back out of the send queue and release every retention
// reference, leaving the connection consistent for a later retry.
func TestTCPSendObjectRefusedRollsBack(t *testing.T) {
	eng, ca, cb, na, _, pa := tcpPair()
	delivered := 0
	cb.SetRecvHandler(func(p *mem.Buf) { delivered++; p.DecRef() })

	pa.InjectSendErr = failNextSends(1)

	val := na.alloc.Alloc(1024)
	msg := core.NewMessage(testSchema(), na.ctx)
	msg.AppendBytes(2, na.ctx.NewCFPtr(val.Bytes()))
	if err := ca.SendObject(msg); err == nil {
		t.Fatal("expected refused send to surface an error")
	}
	if ca.Unacked() != 0 {
		t.Fatalf("rolled-back segment still queued: %d", ca.Unacked())
	}
	if val.Refcount() != 2 { // app handle + message CFPtr
		t.Fatalf("refcount = %d after rollback, want 2", val.Refcount())
	}

	// Retry succeeds and the sequence space was restored.
	if err := ca.SendObject(msg); err != nil {
		t.Fatal(err)
	}
	msg.Release()
	eng.Run()
	if delivered != 1 || ca.Unacked() != 0 {
		t.Fatalf("retry after rollback: delivered=%d unacked=%d", delivered, ca.Unacked())
	}
	if val.Refcount() != 1 {
		t.Errorf("refcount = %d after ack, want 1", val.Refcount())
	}
}
