package report

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "Layer", "Speedup")
	tb.AddRow("ResNet/C1", 1.25)
	tb.AddRow("YOLO/C6", "n/a")
	out := tb.String()
	if !strings.Contains(out, "=== Demo ===") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "ResNet/C1") || !strings.Contains(out, "1.25") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count %d:\n%s", len(lines), out)
	}
	// Alignment: header and first row start columns at the same offset.
	h := lines[1]
	r := lines[3]
	if strings.Index(h, "Speedup") != strings.Index(r, "1.25") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, 2)
	var b strings.Builder
	tb.CSV(&b)
	want := "a,b\n1,2\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.123) != "+12.3%" {
		t.Error(Pct(0.123))
	}
	if Pct(-0.05) != "-5.0%" {
		t.Error(Pct(-0.05))
	}
	if PctU(0.5) != "50.0%" {
		t.Error(PctU(0.5))
	}
	if Ratio(13.54) != "13.5x" {
		t.Error(Ratio(13.54))
	}
	if Ratio(0) != "n/a" {
		t.Error("zero ratio must be n/a")
	}
}

func TestAddRowCells(t *testing.T) {
	tb := NewTable("", "x")
	tb.AddRowCells([]string{"y"})
	if !strings.Contains(tb.String(), "y") {
		t.Error("AddRowCells lost data")
	}
}

// Sink must serialize concurrent producers and tolerate nil receivers.
func TestSinkConcurrent(t *testing.T) {
	var mu sync.Mutex
	var got []string
	s := NewSink(func(m string) { mu.Lock(); got = append(got, m); mu.Unlock() })
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Println(fmt.Sprintf("line %d", i))
		}(i)
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("sink delivered %d/%d lines", len(got), n)
	}
	var nilSink *Sink
	nilSink.Println("dropped") // must not panic
	if NewSink(nil) != nil {
		t.Error("a nil-backed sink must be nil (no-op)")
	}
}
