package buffer

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"fireflyrpc/internal/wire"
)

func TestGetAndFree(t *testing.T) {
	p := NewPool(4)
	b := p.Get()
	if b == nil {
		t.Fatal("Get returned nil with capacity available")
	}
	if len(b.Cap()) != wire.MaxPacketLen {
		t.Fatalf("buffer capacity %d, want %d", len(b.Cap()), wire.MaxPacketLen)
	}
	b.SetLen(100)
	if b.Len() != 100 || len(b.Bytes()) != 100 {
		t.Fatal("SetLen/Bytes mismatch")
	}
	b.Free()
	s := p.Stats()
	if s.InUse != 0 || s.Free != 1 || s.Total != 1 {
		t.Fatalf("stats after free: %+v", s)
	}
}

func TestPoolReusesBuffers(t *testing.T) {
	p := NewPool(2)
	a := p.Get()
	a.Free()
	b := p.Get()
	if a != b {
		t.Fatal("pool did not reuse freed buffer")
	}
	if p.Stats().Total != 1 {
		t.Fatalf("total = %d, want 1", p.Stats().Total)
	}
}

func TestPoolExhaustion(t *testing.T) {
	p := NewPool(2)
	a, b := p.Get(), p.Get()
	if a == nil || b == nil {
		t.Fatal("pool refused within limit")
	}
	if c := p.Get(); c != nil {
		t.Fatal("pool exceeded its limit")
	}
	a.Free()
	if c := p.Get(); c == nil {
		t.Fatal("pool refused after a free")
	}
}

func TestUnboundedPool(t *testing.T) {
	p := NewPool(0)
	var bufs []*Buf
	for i := 0; i < 100; i++ {
		b := p.Get()
		if b == nil {
			t.Fatal("unbounded pool returned nil")
		}
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		b.Free()
	}
	if s := p.Stats(); s.InUse != 0 || s.Free != 100 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewPool(1)
	b := p.Get()
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.Free()
}

func TestFreeToWrongPoolPanics(t *testing.T) {
	p1, p2 := NewPool(1), NewPool(1)
	b := p1.Get()
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-pool free did not panic")
		}
	}()
	p2.put(b)
}

func TestSetLenBounds(t *testing.T) {
	p := NewPool(1)
	b := p.Get()
	defer func() {
		if recover() == nil {
			t.Fatal("oversize SetLen did not panic")
		}
	}()
	b.SetLen(wire.MaxPacketLen + 1)
}

func TestCopyFrom(t *testing.T) {
	p := NewPool(1)
	b := p.Get()
	b.CopyFrom([]byte("hello"))
	if string(b.Bytes()) != "hello" {
		t.Fatalf("Bytes = %q", b.Bytes())
	}
}

func TestGetWaitBlocksUntilFree(t *testing.T) {
	p := NewPool(1)
	b := p.Get()
	got := make(chan *Buf)
	go func() { got <- p.GetWait() }()
	select {
	case <-got:
		t.Fatal("GetWait returned while pool empty")
	case <-time.After(20 * time.Millisecond):
	}
	b.Free()
	select {
	case b2 := <-got:
		if b2 == nil {
			t.Fatal("GetWait returned nil")
		}
	case <-time.After(time.Second):
		t.Fatal("GetWait did not wake after free")
	}
}

func TestConcurrentGetFree(t *testing.T) {
	p := NewPool(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				b := p.GetWait()
				b.SetLen(74)
				b.Free()
			}
		}()
	}
	wg.Wait()
	s := p.Stats()
	if s.InUse != 0 {
		t.Fatalf("leaked %d buffers", s.InUse)
	}
	if s.Total > 8 {
		t.Fatalf("allocated %d buffers, limit 8", s.Total)
	}
}

// Property: under any interleaving of gets and frees, the pool's accounting
// holds: total = inUse + free, and inUse never goes negative.
func TestPoolAccountingQuick(t *testing.T) {
	f := func(ops []bool) bool {
		p := NewPool(16)
		var held []*Buf
		for _, get := range ops {
			if get {
				if b := p.Get(); b != nil {
					held = append(held, b)
				}
			} else if len(held) > 0 {
				held[len(held)-1].Free()
				held = held[:len(held)-1]
			}
			s := p.Stats()
			if s.Total != s.InUse+s.Free || s.InUse < 0 || s.Total > 16 {
				return false
			}
			if s.InUse != len(held) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMapZeroedAndWritable(t *testing.T) {
	b := Map(3 * 4096)
	if len(b) != 3*4096 {
		t.Fatalf("len = %d, want %d", len(b), 3*4096)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d = %d, want 0", i, v)
		}
	}
	for i := range b {
		b[i] = byte(i)
	}
	if i := 4097; b[i] != byte(i) {
		t.Fatal("mapped memory did not keep a write")
	}
	Unmap(b)
}
