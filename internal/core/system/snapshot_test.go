// Introspection-source tests: a booted iOS app must contribute its live
// state — impersonation accounting, EGL surface health, DLR namespaces,
// bridge contexts, fault-injection status — to obs.Snapshot, and releasing
// the sources must remove every one of them.
package system

import (
	"strings"
	"testing"

	"cycada/internal/obs"
)

func TestIOSAppRegistersSnapshotSources(t *testing.T) {
	was := obs.SnapshotSourcesEnabled()
	obs.SetSnapshotSourcesEnabled(true)
	defer obs.SetSnapshotSourcesEnabled(was)

	c := New(Config{})
	app, err := c.NewIOSApp(AppConfig{Name: "snaptest"})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	text := obs.Snapshot().Text()
	for _, sec := range []string{
		"== dlr/snaptest",
		"== egl/snaptest",
		"== eglbridge/snaptest",
		"== faults/snaptest",
		"== impersonation/snaptest",
	} {
		if !strings.Contains(text, sec) {
			t.Errorf("snapshot missing section %q:\n%s", sec, text)
		}
	}
	// The DLR section lists the global namespace with its loaded libraries.
	if !strings.Contains(text, "global") {
		t.Fatalf("dlr section missing the global namespace:\n%s", text)
	}

	app.Close()
	after := obs.Snapshot().Text()
	if strings.Contains(after, "snaptest") {
		t.Fatalf("released sources still polled:\n%s", after)
	}
}

func TestIOSAppSkipsSourcesWhenGateOff(t *testing.T) {
	was := obs.SnapshotSourcesEnabled()
	obs.SetSnapshotSourcesEnabled(false)
	defer obs.SetSnapshotSourcesEnabled(was)

	c := New(Config{})
	app, err := c.NewIOSApp(AppConfig{Name: "gatedapp"})
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if strings.Contains(obs.Snapshot().Text(), "gatedapp") {
		t.Fatal("sources registered while the gate was off")
	}
}
