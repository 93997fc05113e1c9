package telemetry

import (
	"bufio"
	"strings"
	"testing"
)

// FuzzParseText parses arbitrary text as an exposition document. It must
// never panic, and a duplicate series must always be rejected: an accepted
// document's series are distinct, and the document with one of its series
// lines repeated at the end is refused.
func FuzzParseText(f *testing.F) {
	for _, doc := range append([]string{goldenMetrics, validDoc}, malformedDocs...) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		samples, err := ParseText(strings.NewReader(doc))
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for i := range samples {
			k := samples[i].key()
			if seen[k] {
				t.Fatalf("accepted a duplicate series %s in %q", k, doc)
			}
			seen[k] = true
		}
		if line, ok := seriesLine(doc); ok {
			again := doc + "\n" + line
			if _, err := ParseText(strings.NewReader(again)); err == nil {
				t.Fatalf("accepted %q, which repeats the series line %q", again, line)
			}
		}
	})
}

// seriesLine returns the first line of an accepted document that is a
// series rather than blank or a comment.
func seriesLine(doc string) (string, bool) {
	sc := bufio.NewScanner(strings.NewReader(doc))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			return line, true
		}
	}
	return "", false
}
