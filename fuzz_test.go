package drrgossip

import (
	"errors"
	"testing"
)

// FuzzParseTopology feeds arbitrary text to the topology parser. A
// rejected spec must wrap ErrBadConfig; an accepted one must round-trip
// through its canonical String form, and building a session on it must
// either succeed or fail with ErrBadConfig — never panic, including on
// near-MaxInt parameters.
//
//	go test -run '^$' -fuzz FuzzParseTopology -fuzztime 10s -fuzzminimizetime 100x .
func FuzzParseTopology(f *testing.F) {
	for _, name := range TopologyNames() {
		f.Add(name)
	}
	for _, spec := range []string{
		"smallworld:9223372036854775807", "scalefree:9223372036854775807",
		"smallworld:-9223372036854775808", "regular:63", "regular:+6", "regular:-4",
		"  Ring ", "COMPLETE", "chord:5", "torus:", ":", "regular:1e3", "mesh", "\x00:\xff",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, text string) {
		topo, err := ParseTopology(text)
		if err != nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("ParseTopology(%q): error %v does not wrap ErrBadConfig", text, err)
			}
			return
		}
		again, err := ParseTopology(topo.String())
		if err != nil || again != topo {
			t.Fatalf("ParseTopology(%q) = %v does not round-trip: got %v, %v", text, topo, again, err)
		}
		if _, err := New(Config{N: 64, Topology: topo}); err != nil && !errors.Is(err, ErrBadConfig) {
			t.Fatalf("New with topology %q: error %v does not wrap ErrBadConfig", text, err)
		}
	})
}

// FuzzParseQuantileMethod feeds arbitrary text to the quantile-method
// parser: rejections wrap ErrBadConfig, and every accepted method
// round-trips through String and validates in a Config.
//
//	go test -run '^$' -fuzz FuzzParseQuantileMethod -fuzztime 10s .
func FuzzParseQuantileMethod(f *testing.F) {
	for _, text := range []string{"", "bisect", "bisection", "hms", " HMS ", "Bisect", "median", "\xff"} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ParseQuantileMethod(text)
		if err != nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("ParseQuantileMethod(%q): error %v does not wrap ErrBadConfig", text, err)
			}
			return
		}
		again, err := ParseQuantileMethod(m.String())
		if err != nil || again != m {
			t.Fatalf("ParseQuantileMethod(%q) = %v does not round-trip: got %v, %v", text, m, again, err)
		}
		if _, err := New(Config{N: 64, QuantileMethod: m}); err != nil {
			t.Fatalf("New with quantile method %v: %v", m, err)
		}
	})
}
