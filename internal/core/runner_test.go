package core

import (
	"bytes"
	"strings"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/obs"
)

func TestKeyDeterministic(t *testing.T) {
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	k1, err := Key(m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("same inputs hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 || strings.ToLower(k1) != k1 {
		t.Fatalf("key is not lowercase hex SHA-256: %q", k1)
	}
}

func TestKeySensitivity(t *testing.T) {
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	base, err := Key(m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	p36b := apps.MP3Platform3(36)
	p36b.PackageSize = 48
	variants := map[string]func() (string, error){
		"package size": func() (string, error) { return Key(m, p36b, Options{}) },
		"detect ticks": func() (string, error) { return Key(m, p, Options{DetectTicks: 7}) },
		"policy":       func() (string, error) { return Key(m, p, Options{Policy: emulator.PolicyFIFO}) },
		"overheads": func() (string, error) {
			return Key(m, p, Options{Overheads: emulator.Overheads{GrantTicks: 1, SyncTicks: 2}})
		},
		"model": func() (string, error) { return Key(apps.JPEGModel(), apps.JPEGPlatform3(36), Options{}) },
	}
	for what, mk := range variants {
		k, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if k == base {
			t.Errorf("changing %s did not change the key", what)
		}
	}
}

func TestKeyIgnoresSideChannels(t *testing.T) {
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	base, err := Key(m, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withSide, err := Key(m, p, Options{Trace: true, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if base != withSide {
		t.Error("trace/metrics side channels leaked into the cache key")
	}
}

func TestRunnerReportJSONDeterministic(t *testing.T) {
	r := NewRunner(Options{})
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	a, err := r.ReportJSON(m, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ReportJSON(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two runs of the same pair produced different report JSON")
	}
	if !bytes.Contains(a, []byte(`"execution_time_ps"`)) {
		t.Errorf("report JSON missing execution time: %s", a)
	}
}

func TestRunnerPreflightRejects(t *testing.T) {
	// The runner emulates without a gate; the pair must still fail,
	// and preflight must explain the failure.
	r := NewRunner(Options{})
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	p.Segments[0].FUs = nil // empty segment: SB027
	if _, err := r.ReportJSON(m, p); err == nil {
		t.Fatal("runner accepted an empty segment")
	}
	if !Preflight(m, p).HasErrors() {
		t.Error("preflight finds no error in an empty segment")
	}
}
