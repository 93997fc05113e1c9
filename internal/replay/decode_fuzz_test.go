package replay_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cycada/internal/replay"
)

// cytr wraps a raw trace body in the container: magic, version 1, flate.
func cytr(t testing.TB, body []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	out.WriteString("CYTR")
	out.WriteByte(1)
	fw, err := flate.NewWriter(&out, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(body)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// header is a trace body up to and including the given string-table and
// event counts: empty label, 1x1 screen, no strings or events follow.
func header(nstr, nev uint64) []byte {
	body := []byte{0, 1, 1}
	body = binary.AppendUvarint(body, nstr)
	if nstr == 0 {
		body = binary.AppendUvarint(body, nev)
	}
	return body
}

// Tiny hostile headers must fail cleanly and cheaply: Decode runs on files
// from outside the program, so no count or size in them may reach make or
// wrap a bounds check. The first case is the committed fuzz crasher
// (testdata/fuzz/FuzzDecode/strtab-count-2p62).
func TestDecodeRejectsHostileHeaders(t *testing.T) {
	huge := func(body []byte, vs ...uint64) []byte {
		for _, v := range vs {
			body = binary.AppendUvarint(body, v)
		}
		return body
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"string table count 2^62", cytr(t, header(1<<62, 0))},
		{"event count 2^24 and no events", cytr(t, header(0, 1<<24))},
		{"final frame 2^32 x 2^32", cytr(t, huge(append(header(0, 0), 1), 1<<32, 1<<32))},
		{"final frame 2^13 x 2^13 and no pixels", cytr(t, huge(append(header(0, 0), 1), 1<<13, 1<<13))},
		{"screen 2^32 x 2^32", cytr(t, huge([]byte{0}, 1<<32, 1<<32, 0, 0, 0))},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := replay.Decode(c.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: Decode err = nil, want error", c.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: Decode of %d bytes allocated %d bytes", c.name, len(c.data), alloc)
		}
	}
}

// FuzzDecode feeds Decode arbitrary bytes, seeded from the golden traces and
// the every-tag sample: it must return a trace or an error, never panic, and
// every trace it accepts must encode again.
func FuzzDecode(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.cytr"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden traces (err %v)", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	sample, err := replay.Encode(sampleTrace())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := replay.Decode(data)
		if err != nil {
			return
		}
		if _, err := replay.Encode(tr); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
	})
}
