package faultnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"fireflyrpc/internal/transport"
)

// numbered builds n frames of size bytes carrying their index.
func numberedFrames(dst transport.Addr, n, size int) []transport.Frame {
	frames := make([]transport.Frame, n)
	for i := range frames {
		data := make([]byte, size)
		binary.BigEndian.PutUint32(data, uint32(i))
		frames[i] = transport.Frame{Dst: dst, Data: data}
	}
	return frames
}

// survivors replays the decision schedule (a pure function of seed) and
// returns how many of n outbound frames of the given size get through.
func survivors(prof Profile, seed uint64, n, size int) int {
	im := NewImpairer(prof, seed)
	alive := 0
	for i := 0; i < n; i++ {
		if !im.Decide(DirOut, 0, size).Drop {
			alive++
		}
	}
	return alive
}

// The wrapper advertises a batched datapath exactly when the wrapped
// transport has one.
func TestWrapBatchEnabledForwards(t *testing.T) {
	ex := transport.NewExchange()
	ft := Wrap(ex.Port("a"), Profile{}, 1)
	defer ft.Close()
	if transport.SupportsBatch(ft) {
		t.Fatal("wrapper over the exchange claims batch support")
	}

	bt, err := transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
	if err != nil {
		t.Skip("no loopback:", err)
	}
	fb := Wrap(bt, Profile{}, 1)
	defer fb.Close()
	if transport.SupportsBatch(fb) != transport.SupportsBatch(bt) {
		t.Fatal("wrapper disagrees with inner about batch support")
	}
	if _, ok := fb.TransportStats(); !ok {
		t.Fatal("wrapper does not forward transport stats")
	}
}

// SendBatch and Send must consume the decision schedule identically: the
// same seed yields the same survivor sequence on either datapath. Run over
// the in-process exchange, where delivery is inline and exact.
func TestWrapBatchScheduleParity(t *testing.T) {
	prof := Profile{Out: Impair{Drop: 0.3}}
	const n, seed = 200, 42

	run := func(batch bool) [][]byte {
		ex := transport.NewExchange()
		ft := Wrap(ex.Port("a"), prof, seed)
		b := ex.Port("b")
		defer ft.Close()
		defer b.Close()
		cb := &collector{}
		b.SetReceiver(cb.recv)
		frames := numberedFrames(transport.AddrOf("b"), n, 32)
		if batch {
			if sent, err := ft.SendBatch(frames); err != nil || sent != n {
				t.Fatalf("SendBatch = %d, %v", sent, err)
			}
		} else {
			for _, f := range frames {
				if err := ft.Send(f.Dst, f.Data); err != nil {
					t.Fatal(err)
				}
			}
		}
		waitCount(t, cb, survivors(prof, seed, n, 32))
		cb.mu.Lock()
		defer cb.mu.Unlock()
		return append([][]byte(nil), cb.frames...)
	}

	perFrame := run(false)
	batched := run(true)
	if len(perFrame) != len(batched) {
		t.Fatalf("survivor counts differ: per-frame %d, batched %d", len(perFrame), len(batched))
	}
	for i := range perFrame {
		if !bytes.Equal(perFrame[i], batched[i]) {
			t.Fatalf("survivor %d differs: per-frame seq %d, batched seq %d",
				i, binary.BigEndian.Uint32(perFrame[i]), binary.BigEndian.Uint32(batched[i]))
		}
	}
}

// The loopback equivalence witness: under a reorder+loss profile with a
// fixed seed, one SendBatch over a ListenUDPBatch socket (GSO, sendmmsg)
// and per-frame Sends over a ListenUDP socket deliver the identical frame
// sequence. The hold-back is coarse
// (50 ms ≫ scheduling noise) so the reordering itself is deterministic.
func TestBatchedPerFrameEquivalenceUnderReorder(t *testing.T) {
	prof := Profile{Out: Impair{Drop: 0.2, Reorder: 0.3, ReorderDelay: Duration(50 * time.Millisecond)}}
	const n, seed = 96, 7
	const size = 256

	run := func(batch bool) [][]byte {
		recvT, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Skip("no loopback:", err)
		}
		defer recvT.Close()
		cb := &collector{}
		recvT.SetReceiver(cb.recv)

		var inner transport.Transport
		if batch {
			inner, err = transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
		} else {
			inner, err = transport.ListenUDP("127.0.0.1:0")
		}
		if err != nil {
			t.Skip("no loopback:", err)
		}
		ft := Wrap(inner, prof, seed)
		defer ft.Close()

		frames := numberedFrames(recvT.LocalAddr(), n, size)
		if batch {
			if sent, err := ft.SendBatch(frames); err != nil || sent != n {
				t.Fatalf("SendBatch = %d, %v", sent, err)
			}
		} else {
			for _, f := range frames {
				if err := ft.Send(f.Dst, f.Data); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := survivors(prof, seed, n, size)
		waitCount(t, cb, want)
		// Give stragglers a moment to prove there are none.
		time.Sleep(20 * time.Millisecond)
		cb.mu.Lock()
		defer cb.mu.Unlock()
		if len(cb.frames) != want {
			t.Fatalf("delivered %d frames, want %d", len(cb.frames), want)
		}
		return append([][]byte(nil), cb.frames...)
	}

	perFrame := run(false)
	batched := run(true)
	var diffs []string
	for i := range perFrame {
		if !bytes.Equal(perFrame[i], batched[i]) {
			diffs = append(diffs, fmt.Sprintf("pos %d: per-frame seq %d vs batched seq %d",
				i, binary.BigEndian.Uint32(perFrame[i]), binary.BigEndian.Uint32(batched[i])))
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("sequences diverge at %d positions; first: %s", len(diffs), diffs[0])
	}
}

// A dropped frame mid-batch must not sever the frames after it.
func TestWrapBatchDropKeepsRest(t *testing.T) {
	prof := Profile{Out: Impair{Drop: 1}, Plan: nil}
	ex := transport.NewExchange()
	ft := Wrap(ex.Port("a"), prof, 3)
	b := ex.Port("b")
	defer ft.Close()
	defer b.Close()
	cb := &collector{}
	b.SetReceiver(cb.recv)
	frames := numberedFrames(transport.AddrOf("b"), 10, 16)
	if sent, err := ft.SendBatch(frames); err != nil || sent != 10 {
		t.Fatalf("SendBatch = %d, %v", sent, err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := cb.count(); n != 0 {
		t.Fatalf("%d frames crossed a fully-partitioned link via SendBatch", n)
	}
	if s := ft.Impairer().Stats(DirOut); s.Frames != 10 || s.Drops != 10 {
		t.Fatalf("stats %+v: batch frames not decided individually", s)
	}
}
