package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"clustersim/internal/core"
	"clustersim/internal/telemetry"
)

// digest pins one simulated point: the SHA-256 of its Result JSON and
// its config hash. Both are deterministic, so any change to a simulated
// answer, or to the configuration that produced it, shows as a
// mismatch.
type digest struct {
	Result string `json:"result"`
	Config string `json:"config"`
}

// goldenFile is testdata/golden.json: the digest of every point any
// workload requests, keyed by point name.
type goldenFile struct {
	Schema string            `json:"schema"`
	Size   string            `json:"size"`
	Procs  int               `json:"procs"`
	Points map[string]digest `json:"points"`
}

const goldenSchema = "clusterbench/golden/v1"

var (
	//go:embed testdata/golden.json
	goldenJSON []byte
	//go:embed testdata/finite-figures.txt
	goldenFigures string
)

// digestOf computes a result's digest.
func digestOf(res *core.Result) (digest, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return digest{}, fmt.Errorf("digest: marshal result: %w", err)
	}
	sum := sha256.Sum256(b)
	h, err := telemetry.HashConfig(res.Config)
	if err != nil {
		return digest{}, fmt.Errorf("digest: %w", err)
	}
	return digest{Result: "sha256:" + hex.EncodeToString(sum[:]), Config: h}, nil
}

// loadGolden parses the embedded golden digests.
func loadGolden() (map[string]digest, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	if g.Schema != goldenSchema || g.Size != size.String() || g.Procs != procs {
		return nil, fmt.Errorf("golden: file is %s at %s size, %d procs; want %s at %s size, %d procs",
			g.Schema, g.Size, g.Procs, goldenSchema, size, procs)
	}
	return g.Points, nil
}

// checker judges every point and figure a run produces against the
// goldens, and tallies the outcome.
type checker struct {
	golden  map[string]digest
	figures map[int]string // golden text of each finite figure
	tally   tally
	errs    []string // first few failures, for the report
}

func newChecker() (*checker, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	return &checker{golden: g, figures: splitFigures(goldenFigures)}, nil
}

// failure notes why a point failed, keeping the report short.
func (c *checker) failure(format string, args ...any) {
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// pointOK checks one point's outcome: it must have run without error
// (which includes its app's own verification) and match its golden.
func (c *checker) pointOK(p point, res *core.Result, runErr error) bool {
	if runErr != nil {
		c.failure("%s: %v", p.name(), runErr)
		return false
	}
	want, ok := c.golden[p.name()]
	if !ok {
		c.failure("%s: no golden digest", p.name())
		return false
	}
	got, err := digestOf(res)
	if err != nil {
		c.failure("%s: %v", p.name(), err)
		return false
	}
	if got != want {
		c.failure("%s: digest %s/%s, golden %s/%s", p.name(), got.Result, got.Config, want.Result, want.Config)
		return false
	}
	return true
}

// checkPass tallies one pass: each point counts once, and a point whose
// figure rendered differently from the golden text counts as failed.
func (c *checker) checkPass(r *passResult) {
	badFig := map[string]bool{}
	for fig, text := range r.figures {
		if text != c.figures[fig] {
			c.failure("figure %d: rendered text differs from the golden", fig)
			badFig[figureApp(fig)] = true
		}
	}
	for _, pr := range r.points {
		ok := c.pointOK(pr.pt, pr.res, pr.err)
		if ok && badFig[pr.pt.App] {
			ok = false
		}
		c.tally.add(ok)
	}
}

// splitFigures splits the concatenated golden text into figures, keyed
// by figure number; each figure starts with its "Figure N:" line.
func splitFigures(all string) map[int]string {
	out := map[int]string{}
	var cur int
	var b strings.Builder
	flush := func() {
		if cur != 0 {
			out[cur] = b.String()
		}
		b.Reset()
	}
	for _, line := range strings.SplitAfter(all, "\n") {
		var n int
		if _, err := fmt.Sscanf(line, "Figure %d:", &n); err == nil {
			flush()
			cur = n
		}
		b.WriteString(line)
	}
	flush()
	return out
}

// writeGolden simulates every point once, unmeasured, and rewrites the
// golden files in dir. Only the -write-golden mode calls it; a
// measured run never does.
func writeGolden(dir string) error {
	g := goldenFile{Schema: goldenSchema, Size: size.String(), Procs: procs, Points: map[string]digest{}}
	for _, p := range append(fig2Points(), finitePoints()...) {
		if _, done := g.Points[p.name()]; done {
			continue
		}
		res, err := runBare(p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name(), err)
		}
		if g.Points[p.name()], err = digestOf(res); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "golden.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	figs, err := renderFigures(newPlainSuite(), finiteFigures())
	if err != nil {
		return err
	}
	var text strings.Builder
	for _, fig := range finiteFigures() {
		text.WriteString(figs[fig])
	}
	return os.WriteFile(filepath.Join(dir, "finite-figures.txt"), []byte(text.String()), 0o644)
}
