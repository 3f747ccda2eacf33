package analytic

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"quarc/internal/model"
	_ "quarc/internal/models"
)

var update = flag.Bool("update", false, "rewrite testdata/predictions.golden from this build")

const goldenPath = "testdata/predictions.golden"

// hop is one link a route holds: a stable key for the physical link and the
// virtual channel on it.
type hop struct{ link, vc int }

// routeFunc returns the route s -> d, s != d, as the links it holds in order.
type routeFunc func(s, d int) []hop

// walked is the model's route as the simulator takes it (model.Routes); a
// link is keyed node*64 + out.
func walked(t testing.TB, name string, n int) routeFunc {
	fab, err := model.Routes(name, n)
	if err != nil {
		t.Fatalf("model.Routes(%s, %d): %v", name, n, err)
	}
	return func(s, d int) []hop {
		var p []hop
		fab.Walk(s, d, func(node, out, vc int) { p = append(p, hop{node*64 + out, vc}) })
		return p
	}
}

// routeSizes lists the sizes the route checks cover: every ring-family size,
// and the square meshes and tori from 2x2 to 12x12.
func routeSizes(name string) []int {
	if name == "mesh" || name == "torus" {
		var ns []int
		for side := 2; side <= 12; side++ {
			ns = append(ns, side*side)
		}
		return ns
	}
	var ns []int
	for n := 8; n <= 64; n += 4 {
		ns = append(ns, n)
	}
	return ns
}

// routeDigest hashes every ordered pair's route in (s, d) order, each link
// renamed by its first appearance, so two route sets digest alike exactly
// when they hold the same links, in the same order, on the same VCs, up to
// the naming of the links.
func routeDigest(n int, route routeFunc) string {
	h := sha256.New()
	canon := map[int]uint32{}
	var buf [8]byte
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			p := route(s, d)
			binary.LittleEndian.PutUint32(buf[:4], uint32(len(p)))
			h.Write(buf[:4])
			for _, x := range p {
				id, ok := canon[x.link]
				if !ok {
					id = uint32(len(canon))
					canon[x.link] = id
				}
				binary.LittleEndian.PutUint32(buf[:4], id)
				binary.LittleEndian.PutUint32(buf[4:], uint32(x.vc))
				h.Write(buf[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TestWalkedRoutesMatchHandWritten requires the walked routes of every
// registered model at every size to digest as the golden's route lines,
// which the hand-written route copies this package once enumerated (the
// Quarc's and the Spidergon's channel lists, the ring's, and the XY mesh
// loop with the torus dateline) wrote: the same links in the same order on
// the same VCs, pair for pair.
func TestWalkedRoutesMatchHandWritten(t *testing.T) {
	routes, _ := readGolden(t)
	for _, name := range model.Names() {
		for _, n := range routeSizes(name) {
			want, ok := routes[fmt.Sprintf("%s %d", name, n)]
			if !ok {
				t.Fatalf("golden has no route digest for %s n=%d", name, n)
			}
			if got := routeDigest(n, walked(t, name, n)); got != want {
				t.Errorf("%s n=%d: walked routes digest %s, golden %s", name, n, got, want)
			}
		}
	}
}

// goldenLoads are the offered loads of the predictions golden, as fractions
// of each network's saturation rate: idle, the finite range, the last finite
// step, saturation and beyond.
var goldenLoads = []float64{0, 0.2, 0.5, 0.8, 0.95, 0.999, 1, 1.5}

var goldenMs = []int{2, 4, 16, 32}

// goldenCase is one prediction of the golden grid.
type goldenCase struct {
	model  string
	n, m   int
	lambda float64
}

// goldenGrid lists the analysed models' sizes, message lengths and loads:
// every ring-family size, the squares from 2x2 to 12x12 plus 16x16 (the
// largest whose routes are kept) and 20x20 (walked again on every call), and
// one 32x32 mesh point. sat gives a network's saturation rate.
func goldenGrid(sat func(model string, n, m int) float64) []goldenCase {
	var grid []goldenCase
	add := func(name string, n int, ms []int, loads []float64) {
		for _, m := range ms {
			s := sat(name, n, m)
			for _, f := range loads {
				grid = append(grid, goldenCase{name, n, m, s * f})
			}
		}
	}
	for _, name := range []string{"quarc", "quarc-chainbcast", "quarc-1queue", "spidergon", "mesh", "torus"} {
		ns := routeSizes(name)
		if name == "mesh" || name == "torus" {
			ns = append(ns, 256)
		}
		for _, n := range ns {
			add(name, n, goldenMs, goldenLoads)
		}
	}
	// Walked again on every call: one message length suffices.
	add("mesh", 400, []int{16}, goldenLoads)
	add("torus", 400, []int{16}, goldenLoads)
	add("mesh", 1024, []int{16}, []float64{0.5})
	return grid
}

const goldenHeader = `# Route digests of every registered model (routeDigest: links renamed by first
# appearance, VCs included) and uniform-unicast Predictions of every analysed
# model (model n M lambda AvgHops ZeroLoadLatency MeanLatency MaxChannelUtil
# SaturationRate, every float as its float64 bits).
# Refresh: go test ./internal/analytic -run TestPredictionsMatchGolden -args -update
`

func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// predictionLine is a golden line: the case and every Prediction field as
// float64 bits (the integer fields as the case's own n and m).
func predictionLine(c goldenCase, p Prediction) string {
	return fmt.Sprintf("pred %s %d %d %s %s %s %s %s %s", c.model, c.n, c.m, bits(c.lambda),
		bits(p.AvgHops), bits(p.ZeroLoadLatency), bits(p.MeanLatency), bits(p.MaxChannelUtil), bits(p.SaturationRate))
}

// writeGolden rewrites the golden from this build. The committed file was
// written by the build before routes were walked; refresh it only for a
// deliberate change of routes or of the model's arithmetic.
func writeGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString(goldenHeader)
	for _, name := range model.Names() {
		for _, n := range routeSizes(name) {
			fmt.Fprintf(&b, "route %s %d %s\n", name, n, routeDigest(n, walked(t, name, n)))
		}
	}
	grid := goldenGrid(func(name string, n, m int) float64 {
		p, ok := ForModel(name, n, m, 0)
		if !ok {
			t.Fatalf("ForModel(%s, %d, %d) refused a golden size", name, n, m)
		}
		return p.SaturationRate
	})
	for _, c := range grid {
		p, ok := ForModel(c.model, c.n, c.m, c.lambda)
		if !ok || p.N != c.n || p.MsgLen != c.m || math.Float64bits(p.Lambda) != math.Float64bits(c.lambda) {
			t.Fatalf("ForModel%v = %+v, %v", c, p, ok)
		}
		b.WriteString(predictionLine(c, p) + "\n")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readGolden returns the golden's route digests by "model n" and its
// prediction lines in order.
func readGolden(t *testing.T) (routes map[string]string, preds [][]string) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	routes = map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		switch {
		case len(fs) == 4 && fs[0] == "route":
			routes[fs[1]+" "+fs[2]] = fs[3]
		case len(fs) == 10 && fs[0] == "pred":
			preds = append(preds, fs[1:])
		case len(fs) > 0 && fs[0] != "#":
			t.Fatalf("bad golden line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return routes, preds
}

// TestPredictionsMatchGolden holds ForModel, cold, to the golden bit for bit.
func TestPredictionsMatchGolden(t *testing.T) {
	if *update {
		forgetTables()
		writeGolden(t)
	}
	forgetTables()
	_, preds := readGolden(t)
	if len(preds) == 0 {
		t.Fatal("golden holds no predictions")
	}
	for _, fs := range preds {
		n, _ := strconv.Atoi(fs[1])
		m, _ := strconv.Atoi(fs[2])
		lb, _ := strconv.ParseUint(fs[3], 16, 64)
		c := goldenCase{fs[0], n, m, math.Float64frombits(lb)}
		p, ok := ForModel(c.model, n, m, c.lambda)
		if !ok {
			t.Fatalf("ForModel(%s, %d, %d, %g) refused a golden case", c.model, n, m, c.lambda)
		}
		if got, want := predictionLine(c, p), "pred "+strings.Join(fs, " "); got != want || p.N != n || p.MsgLen != m {
			t.Fatalf("prediction differs from the golden:\n got %s\nwant %s", got, want)
		}
	}
}
