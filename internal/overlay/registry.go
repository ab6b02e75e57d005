package overlay

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"drrgossip/internal/chord"
	"drrgossip/internal/graph"
)

// Spec names an overlay family plus an optional integer parameter
// (degree for regular graphs, lattice half-width for small worlds, …).
// The textual form is "name" or "name:param", e.g. "regular:6".
type Spec struct {
	Name  string
	Param int // 0 = family default
}

// String renders the spec in its parseable form.
func (s Spec) String() string {
	if s.Param != 0 {
		return fmt.Sprintf("%s:%d", s.Name, s.Param)
	}
	return s.Name
}

// ParseSpec parses "name" or "name:param".
func ParseSpec(text string) (Spec, error) {
	name, paramStr, hasParam := strings.Cut(strings.TrimSpace(strings.ToLower(text)), ":")
	s := Spec{Name: name}
	if hasParam {
		p, err := strconv.Atoi(paramStr)
		if err != nil {
			return Spec{}, fmt.Errorf("overlay: bad parameter in spec %q: %v", text, err)
		}
		s.Param = p
	}
	b, ok := registry[s.Name]
	if !ok {
		return Spec{}, fmt.Errorf("overlay: unknown overlay %q (have %s)", name, strings.Join(Names(), ", "))
	}
	if hasParam && !b.HasParam {
		return Spec{}, fmt.Errorf("overlay: %s takes no parameter, got %q", s.Name, text)
	}
	return s, nil
}

// Builder describes one registered overlay family.
type Builder struct {
	// HasParam marks families whose Spec.Param is meaningful; families
	// without it reject any explicit parameter.
	HasParam bool
	// DefaultParam substitutes for Spec.Param == 0.
	DefaultParam int
	// Check validates (n, param) cheaply, without construction; nil
	// means any n >= 2 works.
	Check func(n, param int) error
	// Build constructs the overlay deterministically from (n, param,
	// seed).
	Build func(n, param int, seed uint64) (Overlay, error)
}

var registry = map[string]Builder{}

// Register adds an overlay family under a lower-case name. Registering a
// duplicate name panics (families are wired up in init functions).
func Register(name string, b Builder) {
	if _, dup := registry[name]; dup {
		panic("overlay: duplicate registration of " + name)
	}
	if b.Build == nil {
		panic("overlay: Register " + name + " without Build")
	}
	registry[name] = b
}

// Names lists the registered overlay families in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Check validates a spec against a network size without building it.
func Check(s Spec, n int) error {
	b, ok := registry[s.Name]
	if !ok {
		return fmt.Errorf("overlay: unknown overlay %q", s.Name)
	}
	if n < 2 {
		return fmt.Errorf("overlay: need n >= 2, got %d", n)
	}
	if s.Param != 0 && !b.HasParam {
		return fmt.Errorf("overlay: %s takes no parameter, got %d", s.Name, s.Param)
	}
	param := s.Param
	if param == 0 {
		param = b.DefaultParam
	}
	if b.Check != nil {
		return b.Check(n, param)
	}
	return nil
}

// Build constructs the overlay named by s on n nodes. Construction is
// deterministic in (s, n, seed).
func Build(s Spec, n int, seed uint64) (Overlay, error) {
	if err := Check(s, n); err != nil {
		return nil, err
	}
	b := registry[s.Name]
	param := s.Param
	if param == 0 {
		param = b.DefaultParam
	}
	return b.Build(n, param, seed)
}

// torusShape factors n into the most square rows×cols grid with both
// sides >= 3; ok is false when no such factorisation exists.
func torusShape(n int) (rows, cols int, ok bool) {
	for r := intSqrt(n); r >= 3; r-- {
		if n%r == 0 && n/r >= 3 {
			return r, n / r, true
		}
	}
	return 0, 0, false
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func init() {
	Register("chord", Builder{
		Build: func(n, _ int, seed uint64) (Overlay, error) {
			ring, err := chord.New(n, chord.Options{Seed: seed})
			if err != nil {
				return nil, err
			}
			return NewChord(ring), nil
		},
	})
	Register("ring", Builder{
		Check: func(n, _ int) error {
			if n < 3 {
				return fmt.Errorf("overlay: ring needs n >= 3, got %d", n)
			}
			return nil
		},
		Build: func(n, _ int, _ uint64) (Overlay, error) {
			return NewLandmark(graph.Ring(n))
		},
	})
	Register("torus", Builder{
		Check: func(n, _ int) error {
			if _, _, ok := torusShape(n); !ok {
				return fmt.Errorf("overlay: torus needs n with a rows×cols factorisation, rows, cols >= 3; n=%d has none", n)
			}
			return nil
		},
		Build: func(n, _ int, _ uint64) (Overlay, error) {
			rows, cols, _ := torusShape(n)
			return NewLandmark(graph.Torus(rows, cols))
		},
	})
	Register("hypercube", Builder{
		Check: func(n, _ int) error {
			if n < 2 || bits.OnesCount(uint(n)) != 1 {
				return fmt.Errorf("overlay: hypercube needs n a power of two >= 2, got %d", n)
			}
			return nil
		},
		Build: func(n, _ int, _ uint64) (Overlay, error) {
			return NewLandmark(graph.Hypercube(bits.TrailingZeros(uint(n))))
		},
	})
	Register("regular", Builder{
		HasParam:     true,
		DefaultParam: 4,
		Check: func(n, d int) error {
			if d < 3 || d >= n {
				return fmt.Errorf("overlay: regular needs degree 3 <= d < n, got d=%d n=%d", d, n)
			}
			if n*d%2 != 0 {
				return fmt.Errorf("overlay: regular needs n*d even, got n=%d d=%d", n, d)
			}
			return nil
		},
		Build: func(n, d int, seed uint64) (Overlay, error) {
			// Retry over derived seeds until the sample is connected
			// (for d >= 3 disconnection is vanishingly rare).
			for try := uint64(0); try < 64; try++ {
				g, err := graph.RandomRegular(n, d, seed+try)
				if err == nil && g.Connected() {
					return NewLandmark(g)
				}
			}
			return nil, errors.New("overlay: no connected regular graph within the retry budget")
		},
	})
	Register("smallworld", Builder{
		HasParam:     true,
		DefaultParam: 2,
		Check: func(n, k int) error {
			// k > (n-2)/2 is n < 2k+2 without overflowing 2k+2.
			if k < 1 || k > (n-2)/2 {
				return fmt.Errorf("overlay: smallworld needs k >= 1 and n >= 2k+2, got n=%d k=%d", n, k)
			}
			return nil
		},
		Build: func(n, k int, seed uint64) (Overlay, error) {
			return NewLandmark(graph.SmallWorld(n, k, 0.25, seed))
		},
	})
	Register("scalefree", Builder{
		HasParam:     true,
		DefaultParam: 3,
		Check: func(n, m int) error {
			// m >= n-1 is n <= m+1 without overflowing m+1.
			if m < 1 || m >= n-1 {
				return fmt.Errorf("overlay: scalefree needs m >= 1 and n > m+1, got n=%d m=%d", n, m)
			}
			return nil
		},
		Build: func(n, m int, seed uint64) (Overlay, error) {
			return NewLandmark(graph.BarabasiAlbert(n, m, seed))
		},
	})
}
