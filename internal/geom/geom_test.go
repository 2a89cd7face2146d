package geom

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sparkdbscan/internal/rng"
)

func randomDataset(seed uint64, n, dim int, withLabels bool) *Dataset {
	r := rng.New(seed)
	ds := NewDataset(n, dim)
	for i := range ds.Coords {
		ds.Coords[i] = r.NormFloat64() * 100
	}
	if withLabels {
		ds.Label = make([]int32, n)
		for i := range ds.Label {
			ds.Label[i] = int32(r.Intn(5)) - 1
		}
	}
	return ds
}

func TestDatasetLenAt(t *testing.T) {
	ds := NewDataset(3, 2)
	ds.Set(0, []float64{1, 2})
	ds.Set(1, []float64{3, 4})
	ds.Set(2, []float64{5, 6})
	if ds.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ds.Len())
	}
	if got := ds.At(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("At(1) = %v", got)
	}
}

func TestSetDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set with wrong dim did not panic")
		}
	}()
	NewDataset(1, 3).Set(0, []float64{1})
}

func TestEmptyDatasetLen(t *testing.T) {
	ds := &Dataset{}
	if ds.Len() != 0 {
		t.Fatalf("empty dataset Len = %d", ds.Len())
	}
}

func TestSliceView(t *testing.T) {
	ds := randomDataset(1, 10, 3, true)
	s := ds.Slice(2, 7)
	if s.Len() != 5 {
		t.Fatalf("slice len = %d, want 5", s.Len())
	}
	for i := int32(0); i < 5; i++ {
		want := ds.At(i + 2)
		got := s.At(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("slice point %d coord %d: %g != %g", i, j, got[j], want[j])
			}
		}
		if s.Label[i] != ds.Label[i+2] {
			t.Fatalf("slice label %d mismatch", i)
		}
	}
	// Views share storage.
	s.Coords[0] = 999
	if ds.At(2)[0] != 999 {
		t.Fatal("Slice did not share storage")
	}
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, 2, 2}
	if got := SqDist(a, b); got != 9 {
		t.Fatalf("SqDist = %g, want 9", got)
	}
	if got := Dist(a, b); got != 3 {
		t.Fatalf("Dist = %g, want 3", got)
	}
	if got := Dist(a, a); got != 0 {
		t.Fatalf("Dist(a,a) = %g", got)
	}
}

func TestDistSymmetric(t *testing.T) {
	check := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a := []float64{ax, ay}
		b := []float64{bx, by}
		return SqDist(a, b) == SqDist(b, a)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBounds(t *testing.T) {
	ds := NewDataset(3, 2)
	ds.Set(0, []float64{1, 5})
	ds.Set(1, []float64{-2, 7})
	ds.Set(2, []float64{0, -3})
	r := ds.Bounds()
	if r.Min[0] != -2 || r.Min[1] != -3 || r.Max[0] != 1 || r.Max[1] != 7 {
		t.Fatalf("Bounds = %+v", r)
	}
}

func TestBoundsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bounds of empty dataset did not panic")
		}
	}()
	NewDataset(0, 2).Bounds()
}

func TestTextRoundTrip(t *testing.T) {
	for _, withLabels := range []bool{false, true} {
		ds := randomDataset(2, 50, 4, withLabels)
		var buf bytes.Buffer
		if err := WriteText(&buf, ds); err != nil {
			t.Fatal(err)
		}
		got, err := ReadText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualDatasets(t, ds, got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, withLabels := range []bool{false, true} {
		ds := randomDataset(3, 75, 10, withLabels)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, ds); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualDatasets(t, ds, got)
	}
}

func assertEqualDatasets(t *testing.T, want, got *Dataset) {
	t.Helper()
	if got.Dim != want.Dim || got.Len() != want.Len() {
		t.Fatalf("shape mismatch: got (%d,%d) want (%d,%d)", got.Len(), got.Dim, want.Len(), want.Dim)
	}
	for i := range want.Coords {
		if got.Coords[i] != want.Coords[i] {
			t.Fatalf("coord %d: %g != %g", i, got.Coords[i], want.Coords[i])
		}
	}
	if (want.Label == nil) != (got.Label == nil) {
		t.Fatalf("label presence mismatch")
	}
	for i := range want.Label {
		if got.Label[i] != want.Label[i] {
			t.Fatalf("label %d: %d != %d", i, got.Label[i], want.Label[i])
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"ragged":             "1 2 3\n1 2\n",
		"bad number":         "1 x\n",
		"bad label":          "1 2 #z\n",
		"inconsistent label": "1 2 #0\n3 4\n",
	}
	for name, input := range cases {
		if _, err := ReadText(strings.NewReader(input)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// TestReadRejectsNonFinite: NaN and ±Inf coordinates are load errors
// naming where they sit, in both formats — not points that silently
// come out as noise.
func TestReadRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		text    string    // ReadText input
		coords  []float64 // ReadBinary input, 2-D
		wantErr string
	}{
		{"nan", "1 2\nNaN 5\n", []float64{1, 2, nan, 5}, "coordinate 0"},
		{"inf", "1 2\n3 Inf\n", []float64{1, 2, 3, inf}, "coordinate 1"},
		{"minus inf", "1 2\n3 4\n-Inf 0\n", []float64{1, 2, 3, 4, -inf, 0}, "coordinate 0"},
		{"both", "Inf -Inf\n", []float64{inf, -inf}, "coordinate 0"},
	} {
		_, err := ReadText(strings.NewReader(tc.text))
		wantLine := fmt.Sprintf("line %d", strings.Count(tc.text, "\n"))
		if err == nil || !strings.Contains(err.Error(), wantLine) || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: ReadText error %v, want %q and %q", tc.name, err, wantLine, tc.wantErr)
		}

		ds := NewDataset(len(tc.coords)/2, 2)
		copy(ds.Coords, tc.coords)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, ds); err != nil {
			t.Fatal(err)
		}
		_, err = ReadBinary(&buf)
		wantPoint := fmt.Sprintf("point %d", ds.Len()-1)
		if err == nil || !strings.Contains(err.Error(), wantPoint) || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: ReadBinary error %v, want %q and %q", tc.name, err, wantPoint, tc.wantErr)
		}
	}
}

func TestReadTextSkipsBlanksAndComments(t *testing.T) {
	ds, err := ReadText(strings.NewReader("// header\n1 2\n\n3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Dim != 2 {
		t.Fatalf("got %d points dim %d", ds.Len(), ds.Dim)
	}
}

func TestReadTextCommaSeparated(t *testing.T) {
	ds, err := ReadText(strings.NewReader("1,2,3\n4,5,6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Dim != 3 || ds.At(1)[2] != 6 {
		t.Fatalf("unexpected parse: %+v", ds)
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	ds := randomDataset(4, 10, 2, false)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestSizeBytes(t *testing.T) {
	ds := NewDataset(10, 3)
	if got := ds.SizeBytes(); got != 240 {
		t.Fatalf("SizeBytes = %d, want 240", got)
	}
}

// SqDistDFiltered's contract: a completed scan returns SqDistD's value
// bit-for-bit (callers store it as the canonical distance without a
// second pass), and an aborted scan only ever happens when the true
// distance genuinely exceeds the limit.
func TestSqDistDFiltered(t *testing.T) {
	r := rng.New(77)
	for _, dim := range []int{2, 3, 5, 10, 16, 31, 64, 128, 130} {
		a := make([]float64, dim)
		b := make([]float64, dim)
		for trial := 0; trial < 200; trial++ {
			for j := 0; j < dim; j++ {
				a[j] = r.Float64()*20 - 10
				b[j] = r.Float64()*20 - 10
			}
			want := SqDistD(a, b)
			// Limits from far below to far above the true distance.
			for _, limit := range []float64{0, want * 0.25, want, want * 4, math.Inf(1)} {
				got, ok := SqDistDFiltered(a, b, limit)
				if ok {
					if got != want {
						t.Fatalf("dim %d: completed scan returned %v, SqDistD %v", dim, got, want)
					}
				} else {
					if want <= limit {
						t.Fatalf("dim %d: aborted at limit %v although true distance %v fits", dim, limit, want)
					}
					if got <= limit {
						t.Fatalf("dim %d: aborted scan returned %v <= limit %v", dim, got, limit)
					}
				}
			}
			// A completed scan must always happen when limit >= want.
			if _, ok := SqDistDFiltered(a, b, want); !ok {
				t.Fatalf("dim %d: scan aborted at limit == true distance", dim)
			}
		}
	}
}

func TestCellCoord(t *testing.T) {
	for _, tc := range []struct {
		v, origin, side float64
		want            int64
	}{
		{0, 0, 1, 0},
		{0.999, 0, 1, 0},
		{1, 0, 1, 1},
		{-0.5, 0, 1, -1},
		{-1e9, 0, 2.5, -4e8},
		{1e9 + 3.75, 1e9, 1.25, 3},
		{math.MaxFloat64, -math.MaxFloat64, 1e-300, MaxCell},
		{math.Inf(1), 0, 1, MaxCell},
		{math.Inf(-1), 0, 1, -MaxCell},
		{math.NaN(), 0, 1, -MaxCell},
	} {
		if got := CellCoord(tc.v, tc.origin, tc.side); got != tc.want {
			t.Errorf("CellCoord(%g, %g, %g) = %d, want %d", tc.v, tc.origin, tc.side, got, tc.want)
		}
	}
}

func TestWidestAxes(t *testing.T) {
	r := Rect{Min: []float64{0, 0, -5, 1, 0}, Max: []float64{1, 3, 5, 4, 1}}
	if got, want := r.WidestAxes(), []int{2, 1, 3, 0, 4}; !slices.Equal(got, want) {
		t.Fatalf("WidestAxes = %v, want %v", got, want)
	}
}
