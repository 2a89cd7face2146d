package geom

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The text format is one point per line, coordinates separated by
// whitespace or commas; an optional trailing "#<label>" column carries
// the ground-truth cluster id. The binary format is a small header
// (magic, dim, n, hasLabels) followed by little-endian float64
// coordinates and optional int32 labels; it exists because parsing one
// million 10-d points from text dominates Δ otherwise.

const binaryMagic = 0x4442534b // "DBSK"

// WriteText writes ds in the text format.
func WriteText(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := int32(ds.Len())
	var sb strings.Builder
	for i := int32(0); i < n; i++ {
		sb.Reset()
		p := ds.At(i)
		for j, v := range p {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		if ds.Label != nil {
			sb.WriteString(" #")
			sb.WriteString(strconv.Itoa(int(ds.Label[i])))
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. The dimension is inferred from the
// first line; every line must agree.
func ReadText(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ds := &Dataset{}
	var labels []int32
	hasLabels := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "//") {
			continue
		}
		coordPart := text
		label := int32(0)
		lineHasLabel := false
		if idx := strings.IndexByte(text, '#'); idx >= 0 {
			coordPart = strings.TrimSpace(text[:idx])
			v, err := strconv.Atoi(strings.TrimSpace(text[idx+1:]))
			if err != nil {
				return nil, fmt.Errorf("geom: line %d: bad label: %v", line, err)
			}
			label = int32(v)
			lineHasLabel = true
		}
		fields := strings.FieldsFunc(coordPart, func(r rune) bool {
			return r == ' ' || r == '\t' || r == ','
		})
		if ds.Dim == 0 {
			ds.Dim = len(fields)
			hasLabels = lineHasLabel
		} else if len(fields) != ds.Dim {
			return nil, fmt.Errorf("geom: line %d: %d coords, want %d", line, len(fields), ds.Dim)
		} else if lineHasLabel != hasLabels {
			return nil, fmt.Errorf("geom: line %d: inconsistent label column", line)
		}
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("geom: line %d: %v", line, err)
			}
			ds.Coords = append(ds.Coords, v)
		}
		if err := CheckFinite(ds.Coords[len(ds.Coords)-ds.Dim:]); err != nil {
			return nil, fmt.Errorf("geom: line %d: %w", line, err)
		}
		if hasLabels {
			labels = append(labels, label)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if ds.Dim == 0 {
		return nil, fmt.Errorf("geom: empty input")
	}
	if hasLabels {
		ds.Label = labels
	}
	return ds, nil
}

// WriteBinary writes ds in the binary format.
func WriteBinary(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hasLabels := uint32(0)
	if ds.Label != nil {
		hasLabels = 1
	}
	hdr := []uint32{binaryMagic, uint32(ds.Dim), uint32(ds.Len()), hasLabels}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	buf := make([]byte, 8)
	for _, v := range ds.Coords {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if hasLabels == 1 {
		for _, l := range ds.Label {
			binary.LittleEndian.PutUint32(buf[:4], uint32(l))
			if _, err := bw.Write(buf[:4]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("geom: short header: %v", err)
		}
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("geom: bad magic %#x", hdr[0])
	}
	dim, n, hasLabels := int(hdr[1]), int(hdr[2]), hdr[3] == 1
	if dim <= 0 || n < 0 {
		return nil, fmt.Errorf("geom: bad header dim=%d n=%d", dim, n)
	}
	ds := &Dataset{Dim: dim, Coords: make([]float64, n*dim)}
	buf := make([]byte, 8)
	for i := range ds.Coords {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("geom: short coords: %v", err)
		}
		ds.Coords[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	}
	for i := int32(0); i < int32(n); i++ {
		if err := CheckFinite(ds.At(i)); err != nil {
			return nil, fmt.Errorf("geom: point %d: %w", i, err)
		}
	}
	if hasLabels {
		ds.Label = make([]int32, n)
		for i := range ds.Label {
			if _, err := io.ReadFull(br, buf[:4]); err != nil {
				return nil, fmt.Errorf("geom: short labels: %v", err)
			}
			ds.Label[i] = int32(binary.LittleEndian.Uint32(buf[:4]))
		}
	}
	return ds, nil
}

// CheckFinite rejects a point with a NaN or ±Inf coordinate, naming
// the first one: a non-finite coordinate has no eps-neighbourhood, so
// such a point would silently come out as noise. The readers and every
// serving entry point that accepts coordinates call it.
func CheckFinite(p []float64) error {
	for j, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("coordinate %d: %v is not a finite number", j, v)
		}
	}
	return nil
}
