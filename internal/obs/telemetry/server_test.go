package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cycada/internal/obs"
	"cycada/internal/sim/vclock"
)

func serveTest(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, body
}

// goldenMetrics is the exposition TestMetricsGolden pins.
const goldenMetrics = `# HELP cycada_up 1 while the telemetry server is serving.
# TYPE cycada_up gauge
cycada_up 1
# HELP cycada_uptime_seconds Wall-clock seconds since the server started.
# TYPE cycada_uptime_seconds gauge
cycada_uptime_seconds 12.5
# HELP cycada_scrapes_total Scrapes served, including this one.
# TYPE cycada_scrapes_total counter
cycada_scrapes_total 3
# HELP cycada_events_total Duration-less health events by counter name and registry.
# TYPE cycada_events_total counter
cycada_events_total{ctr="drops",reg="farm"} 3
# HELP cycada_hist_vt_us Since-boot virtual-time distributions in microseconds, by histogram name and registry.
# TYPE cycada_hist_vt_us histogram
cycada_hist_vt_us_bucket{hist="lat",le="1.023"} 2
cycada_hist_vt_us_bucket{hist="lat",le="4.095"} 3
cycada_hist_vt_us_bucket{hist="lat",le="+Inf"} 3
cycada_hist_vt_us_sum{hist="lat"} 5
cycada_hist_vt_us_count{hist="lat"} 3
`

// TestMetricsGolden pins the exposition text byte-for-byte for a fixed set
// of registries: self-metrics, one counter registry, one histogram registry.
// Uptime and scrape count are passed in so the document is deterministic.
func TestMetricsGolden(t *testing.T) {
	s := serveTest(t, Options{})
	cs := obs.NewCounters()
	cs.Counter("drops").Add(3)
	s.AddCounters("farm", cs)
	hs := obs.NewHistograms()
	hs.SetEnabled(true)
	h := hs.Histogram("lat")
	h.Observe(0, 1000)
	h.Observe(0, 1000)
	h.Observe(0, 3000)
	s.AddHistograms("", hs)

	var buf bytes.Buffer
	s.WriteMetrics(&buf, 12.5, 3)

	want := goldenMetrics
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The golden document must parse through our own validator.
	if _, err := ParseText(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("golden document does not parse: %v", err)
	}
}

// TestMetricsNameOrder registers histograms and counters out of name order
// in two registries of each kind: within each registry /metrics lists the
// series in name order, and two renders of one state are byte-identical.
func TestMetricsNameOrder(t *testing.T) {
	s := serveTest(t, Options{})
	names := []string{"sf-compose", "egl-present", "zeta", "diplomat-call", "alpha", "impersonation-session"}
	for _, reg := range []string{"dev1", "dev0"} {
		hs := obs.NewHistograms()
		hs.SetEnabled(true)
		cs := obs.NewCounters()
		for i, name := range names {
			hs.Histogram(name).Observe(0, vclock.Duration(1000*(i+1)))
			cs.Counter(name).Add(int64(i + 1))
		}
		s.AddHistograms(reg, hs)
		s.AddCounters(reg, cs)
	}

	var first, second bytes.Buffer
	s.WriteMetrics(&first, 1, 1)
	s.WriteMetrics(&second, 1, 1)
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two renders differ:\n--- first ---\n%s\n--- second ---\n%s", first.String(), second.String())
	}
	samples, err := ParseText(&first)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	nameLabel := map[string]string{MetricEvents: "ctr", MetricHist + "_count": "hist"}
	order := map[string][]string{} // family and registry -> series names in document order
	for _, smp := range samples {
		if label, ok := nameLabel[smp.Name]; ok {
			key := smp.Name + " " + smp.Label("reg")
			order[key] = append(order[key], smp.Label(label))
		}
	}
	want := slices.Sorted(slices.Values(names))
	for fam := range nameLabel {
		for _, reg := range []string{"dev0", "dev1"} {
			if got := order[fam+" "+reg]; !slices.Equal(got, want) {
				t.Errorf("%s in registry %s: series %v, want %v", fam, reg, got, want)
			}
		}
	}
}

// TestMetricsEndpoint scrapes the live /metrics endpoint and validates the
// document and its self-series.
func TestMetricsEndpoint(t *testing.T) {
	win := obs.NewWindows(time.Second, 8)
	s := serveTest(t, Options{Windows: win})
	hs := obs.NewHistograms()
	hs.SetEnabled(true)
	s.AddHistograms("dev0", hs)
	win.Track(hs)
	hs.Histogram("egl-present").Observe(0, 2000)
	win.Rotate()

	code, body := get(t, s.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	samples, err := ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	if up, ok := FindOne(samples, MetricUp, nil); !ok || up.Value != 1 {
		t.Fatalf("cycada_up = %+v ok=%v, want 1", up, ok)
	}
	if c, ok := FindOne(samples, MetricHist+"_count", map[string]string{"hist": "egl-present", "reg": "dev0"}); !ok || c.Value != 1 {
		t.Fatalf("hist count sample = %+v ok=%v, want 1", c, ok)
	}
	if p99, ok := FindOne(samples, MetricWindow, map[string]string{"hist": "egl-present", "stat": "p99", "window": "10s"}); !ok || p99.Value <= 0 {
		t.Fatalf("windowed p99 sample = %+v ok=%v, want > 0", p99, ok)
	}
	// Scrape counter advances per scrape.
	_, body2 := get(t, s.URL()+"/metrics")
	s2, _ := ParseText(bytes.NewReader(body2))
	a, _ := FindOne(samples, MetricScrapes, nil)
	b, _ := FindOne(s2, MetricScrapes, nil)
	if b.Value != a.Value+1 {
		t.Fatalf("scrapes went %v -> %v, want +1", a.Value, b.Value)
	}
}

// TestCloseLeaksNoGoroutine starts a server, scrapes /metrics over a
// keep-alive connection, and closes the server: every goroutine it started
// — the accept loop and the connection's — must exit. The test waits on the
// goroutine count itself, up to a deadline, rather than for a fixed time.
func TestCloseLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	resp, err := client.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d, %v", resp.StatusCode, err)
	}
	if _, err := ParseText(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("%d goroutines while serving, baseline %d: the check would see no leak", n, base)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHealthzAndSnapshot checks both JSON endpoints round-trip and that a
// degraded health verdict flips the status code.
func TestHealthzAndSnapshot(t *testing.T) {
	s := serveTest(t, Options{})
	code, body := get(t, s.URL()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	var hb healthzBody
	if err := json.Unmarshal(body, &hb); err != nil {
		t.Fatalf("/healthz is not JSON: %v\n%s", err, body)
	}
	if hb.Status != "ok" {
		t.Fatalf("default status = %q, want ok", hb.Status)
	}

	s.SetHealth(func() (bool, any) { return false, map[string]int{"healthy_devices": 0} })
	code, body = get(t, s.URL()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz status = %d, want 503", code)
	}
	if err := json.Unmarshal(body, &hb); err != nil || hb.Status != "degraded" {
		t.Fatalf("degraded body = %s (err %v)", body, err)
	}

	code, body = get(t, s.URL()+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot status = %d", code)
	}
	var snap obs.SystemSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/snapshot is not a snapshot: %v", err)
	}
	if len(snap.Sections) == 0 {
		t.Fatal("/snapshot has no sections")
	}
}

// TestEventsStreamDeliversDumps subscribes to /events and checks a
// flight-recorder AutoDump arrives as one SSE event.
func TestEventsStreamDeliversDumps(t *testing.T) {
	s := serveTest(t, Options{})
	f := obs.NewFlightRecorder()
	f.SetOutput(io.Discard)
	s.AddFlight("dev3", f)

	resp, err := http.Get(s.URL() + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	// First line is the stream comment; read past it before triggering.
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, ":") {
		t.Fatalf("stream preamble = %q err=%v", line, err)
	}

	f.Record(1, obs.FlightMark, "test", "boom", 7, 0)
	f.AutoDump("test-incident")

	type ev struct {
		Source string `json:"source"`
		Reason string `json:"reason"`
		Events int    `json:"events"`
	}
	deadline := time.After(5 * time.Second)
	lines := make(chan string, 16)
	go func() {
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- strings.TrimSpace(line)
		}
	}()
	var data string
	for data == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before event arrived")
			}
			if strings.HasPrefix(line, "data: ") {
				data = strings.TrimPrefix(line, "data: ")
			}
		case <-deadline:
			t.Fatal("no SSE event within 5s of AutoDump")
		}
	}
	var e ev
	if err := json.Unmarshal([]byte(data), &e); err != nil {
		t.Fatalf("event payload is not JSON: %v (%q)", err, data)
	}
	if e.Source != "dev3" || e.Reason != "test-incident" || e.Events == 0 {
		t.Fatalf("event = %+v, want source dev3 reason test-incident events>0", e)
	}
}

// TestConcurrentScrapesVsHotPath races /metrics scrapes against hot-path
// Observe/Inc and window rotation; under -race this pins the lock-free
// scrape contract.
func TestConcurrentScrapesVsHotPath(t *testing.T) {
	win := obs.NewWindows(time.Millisecond, 16)
	s := serveTest(t, Options{Windows: win})
	hs := obs.NewHistograms()
	hs.SetEnabled(true)
	cs := obs.NewCounters()
	s.AddHistograms("hot", hs)
	s.AddCounters("hot", cs)
	win.Track(hs)
	win.TrackCounters(cs)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			h := hs.Histogram("egl-present")
			c := cs.Counter("egl-present-retried")
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(stripe, 1500)
				c.Inc()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			win.Rotate()
		}
	}()
	for i := 0; i < 20; i++ {
		code, body := get(t, s.URL()+"/metrics")
		if code != http.StatusOK {
			t.Errorf("scrape %d: status %d", i, code)
			break
		}
		if _, err := ParseText(bytes.NewReader(body)); err != nil {
			t.Errorf("scrape %d does not parse: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestGaugesGroupedByFamily checks several gauge callbacks contributing to
// one family render under a single header and the document stays valid.
func TestGaugesGroupedByFamily(t *testing.T) {
	s := serveTest(t, Options{})
	s.AddGauges(func() []Gauge {
		return []Gauge{{Name: "cycada_farm_device_state", Labels: []Label{{"device", "0"}, {"state", "healthy"}}, Value: 1}}
	})
	s.AddGauges(func() []Gauge {
		return []Gauge{{Name: "cycada_farm_device_state", Labels: []Label{{"device", "1"}, {"state", "healthy"}}, Value: 0}}
	})
	var buf bytes.Buffer
	s.WriteMetrics(&buf, 1, 1)
	doc := buf.String()
	if got := strings.Count(doc, "# TYPE cycada_farm_device_state gauge"); got != 1 {
		t.Fatalf("family header appears %d times, want 1\n%s", got, doc)
	}
	samples, err := ParseText(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("document does not parse: %v", err)
	}
	if got := len(Find(samples, "cycada_farm_device_state")); got != 2 {
		t.Fatalf("device_state series = %d, want 2", got)
	}
}

// malformedDocs are documents ParseText must reject, and validDoc one it
// must accept.
var malformedDocs = []string{
	"1bad_name 1\n",
	"dup 1\ndup 1\n",
	`lab{x=unquoted} 1` + "\n",
	`lab{x="a",x="b"} 1` + "\n",
	"noval\n",
	"v{a=\"b\"} not-a-number\n",
	"# TYPE x wat\n",
}

const validDoc = "# random comment\nx_total{a=\"with \\\"quotes\\\" and \\\\\"} 4.5 1700000000\ny 2\ny{l=\"v\"} +Inf\n"

// TestParseTextRejectsMalformed exercises the validator's failure modes.
func TestParseTextRejectsMalformed(t *testing.T) {
	for _, doc := range malformedDocs {
		if _, err := ParseText(strings.NewReader(doc)); err == nil {
			t.Errorf("ParseText accepted malformed doc %q", doc)
		}
	}
	samples, err := ParseText(strings.NewReader(validDoc))
	if err != nil {
		t.Fatalf("ParseText rejected valid doc: %v", err)
	}
	if len(samples) != 3 {
		t.Fatalf("parsed %d samples, want 3", len(samples))
	}
	if samples[0].Labels["a"] != `with "quotes" and \` {
		t.Fatalf("unescaped label = %q", samples[0].Labels["a"])
	}
}

func ExampleServe() {
	s, err := Serve("127.0.0.1:0", Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer s.Close()
	fmt.Println("serving")
	// Output: serving
}
