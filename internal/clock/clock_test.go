package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestManualRunsDueFunctionsInOrder(t *testing.T) {
	m := NewManual()
	start := m.Now()
	var got []string
	at := func(name string) func() {
		return func() { got = append(got, name+"@"+m.Now().Sub(start).String()) }
	}
	m.AfterFunc(30*time.Millisecond, at("c"))
	m.AfterFunc(10*time.Millisecond, at("a"))
	m.AfterFunc(10*time.Millisecond, at("b")) // same due time: arming order
	stopped := m.AfterFunc(20*time.Millisecond, at("never"))
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop reports armed once, then not armed")
	}
	m.Advance(25 * time.Millisecond)
	if want := "a@10ms b@10ms"; strings.Join(got, " ") != want {
		t.Fatalf("ran %v, want %s", got, want)
	}
	if d := m.Now().Sub(start); d != 25*time.Millisecond {
		t.Fatalf("clock at %v after Advance(25ms)", d)
	}
	m.Advance(5 * time.Millisecond)
	if len(got) != 3 || got[2] != "c@30ms" {
		t.Fatalf("ran %v, want c at 30ms last", got)
	}
}

// A function may re-arm its own timer; one that falls due inside the same
// Advance runs inside it, with the clock at its due time.
func TestManualRearmInsideAdvance(t *testing.T) {
	m := NewManual()
	start := m.Now()
	var ticks []time.Duration
	var tm Timer
	tm = m.AfterFunc(10*time.Millisecond, func() {
		ticks = append(ticks, m.Now().Sub(start))
		if len(ticks) < 3 {
			tm.Reset(10 * time.Millisecond)
		}
	})
	m.Advance(time.Second)
	if len(ticks) != 3 || ticks[0] != 10*time.Millisecond || ticks[2] != 30*time.Millisecond {
		t.Fatalf("ticks %v, want 10ms 20ms 30ms", ticks)
	}
	if tm.Reset(time.Millisecond) {
		t.Fatal("Reset of a fired timer reports it armed")
	}
	if !tm.Reset(time.Millisecond) {
		t.Fatal("Reset of an armed timer reports it disarmed")
	}
}

func TestEvery(t *testing.T) {
	m := NewManual()
	start := m.Now()
	var runs []time.Duration
	stop := Every(m, 10*time.Millisecond, func() { runs = append(runs, m.Now().Sub(start)) })
	m.Advance(35 * time.Millisecond)
	stop()
	stop()
	m.Advance(time.Second)
	if len(runs) != 3 || runs[0] != 10*time.Millisecond || runs[2] != 30*time.Millisecond {
		t.Fatalf("ran at %v, want 10ms 20ms 30ms and nothing after stop", runs)
	}
}

// Timers armed, stopped and advanced from several goroutines at once: the
// race detector checks the locking, and every armed function runs once.
func TestManualConcurrentUse(t *testing.T) {
	m := NewManual()
	var mu sync.Mutex
	ran := 0
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.AfterFunc(time.Duration(i%7)*time.Millisecond, func() {
					mu.Lock()
					ran++
					mu.Unlock()
				})
				m.AfterFunc(time.Hour, func() { t.Error("stopped timer ran") }).Stop()
				m.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	m.Advance(10 * time.Millisecond)
	if ran != 400 {
		t.Fatalf("%d functions ran, want 400", ran)
	}
}

// TestNoDirectClockCalls keeps the packages that run on the seam off the
// wall clock: no non-test file of theirs may call the time package's clock
// or timer functions, or name them as values. Use a clock.Clock instead.
func TestNoDirectClockCalls(t *testing.T) {
	banned := map[string]bool{
		"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true, "Tick": true, "Sleep": true,
	}
	fset := token.NewFileSet()
	for _, pkg := range []string{"proto", "overload", "cluster", "registry"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources for %s: %v", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			name := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
					name = "time"
					if imp.Name != nil {
						name = imp.Name.Name
					}
				}
			}
			if name == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && banned[sel.Sel.Name] {
					t.Errorf("%s: time.%s reads the wall clock directly; use the package's clock.Clock",
						fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
