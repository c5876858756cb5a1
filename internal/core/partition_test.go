package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEqualPartition(t *testing.T) {
	tests := []struct {
		k          int
		wantSlices int
		wantErr    error
	}{
		{1, 1, nil},
		{2, 2, nil},
		{10, 10, nil},
		{100, 100, nil},
		{0, 0, ErrNoSlices},
		{-3, 0, ErrNoSlices},
	}
	for _, tt := range tests {
		p, err := Equal(tt.k)
		if !errors.Is(err, tt.wantErr) {
			t.Errorf("Equal(%d) error = %v, want %v", tt.k, err, tt.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if got := p.Len(); got != tt.wantSlices {
			t.Errorf("Equal(%d).Len() = %d, want %d", tt.k, got, tt.wantSlices)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("Equal(%d).Validate() = %v", tt.k, err)
		}
	}
}

func TestMustEqualPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustEqual(0) did not panic")
		}
	}()
	MustEqual(0)
}

func TestNewPartition(t *testing.T) {
	tests := []struct {
		name    string
		bounds  []float64
		wantErr bool
	}{
		{"no interior boundary", nil, false},
		{"top 20 percent", []float64{0.8}, false},
		{"unsorted ok", []float64{0.7, 0.3}, false},
		{"zero boundary", []float64{0}, true},
		{"one boundary", []float64{1}, true},
		{"negative", []float64{-0.5}, true},
		{"duplicate", []float64{0.5, 0.5}, true},
		{"nan", []float64{math.NaN()}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := NewPartition(tt.bounds...)
			if (err != nil) != tt.wantErr {
				t.Fatalf("NewPartition(%v) error = %v, wantErr %v", tt.bounds, err, tt.wantErr)
			}
			if err == nil {
				if got := p.Len(); got != len(tt.bounds)+1 {
					t.Errorf("Len() = %d, want %d", got, len(tt.bounds)+1)
				}
			}
		})
	}
}

func TestPartitionIndex(t *testing.T) {
	p := MustEqual(4) // (0,.25] (.25,.5] (.5,.75] (.75,1]
	tests := []struct {
		r    float64
		want int
	}{
		{0.1, 0},
		{0.25, 0}, // boundary belongs to the lower slice
		{0.2500001, 1},
		{0.5, 1},
		{0.75, 2},
		{0.99, 3},
		{1, 3},
		{0, 0},   // clamped
		{-4, 0},  // clamped
		{1.5, 3}, // clamped
	}
	for _, tt := range tests {
		if got := p.Index(tt.r); got != tt.want {
			t.Errorf("Index(%v) = %d, want %d", tt.r, got, tt.want)
		}
		if !p.Of(tt.r).Contains(math.Min(math.Max(tt.r, 1e-12), 1)) {
			t.Errorf("Of(%v) = %v does not contain the clamped rank", tt.r, p.Of(tt.r))
		}
	}
}

func TestPartitionSlicesAdjacent(t *testing.T) {
	p, err := NewPartition(0.2, 0.35, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	slices := p.Slices()
	if slices[0].Low != 0 {
		t.Errorf("first slice low = %v, want 0", slices[0].Low)
	}
	if slices[len(slices)-1].High != 1 {
		t.Errorf("last slice high = %v, want 1", slices[len(slices)-1].High)
	}
	for i := 1; i < len(slices); i++ {
		if slices[i].Low != slices[i-1].High {
			t.Errorf("slice %d not adjacent: %v then %v", i, slices[i-1], slices[i])
		}
	}
}

func TestNearestBoundary(t *testing.T) {
	p := MustEqual(4)
	tests := []struct {
		r        float64
		wantB    float64
		wantDist float64
	}{
		{0.3, 0.25, 0.05},
		{0.25, 0.25, 0},
		{0.5, 0.5, 0},
		{0.01, 0.25, 0.24},
		{0.99, 0.75, 0.24},
		{0.625, 0.5, 0.125}, // equidistant rounds to the lower boundary? 0.625 is midway between .5 and .75
	}
	for _, tt := range tests {
		b, d := p.NearestBoundary(tt.r)
		if math.Abs(d-tt.wantDist) > 1e-12 {
			t.Errorf("NearestBoundary(%v) dist = %v, want %v", tt.r, d, tt.wantDist)
		}
		if math.Abs(b-tt.wantB) > 1e-12 && math.Abs((1.25-b)-tt.wantB) > 1 { // allow either side when equidistant
			t.Errorf("NearestBoundary(%v) boundary = %v, want %v", tt.r, b, tt.wantB)
		}
	}
}

func TestNearestBoundarySingleSlice(t *testing.T) {
	p := MustEqual(1)
	b, d := p.NearestBoundary(0.5)
	if !math.IsNaN(b) || !math.IsInf(d, 1) {
		t.Errorf("NearestBoundary on single slice = (%v,%v), want (NaN,+Inf)", b, d)
	}
}

func TestSliceDistanceEqualWidths(t *testing.T) {
	p := MustEqual(10)
	tests := []struct {
		act, est int
		want     float64
	}{
		{0, 0, 0},
		{0, 2, 2},
		{2, 0, 2},
		{9, 0, 9},
	}
	for _, tt := range tests {
		if got := p.SliceDistance(tt.act, tt.est); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("SliceDistance(%d,%d) = %v, want %v", tt.act, tt.est, got, tt.want)
		}
	}
}

// Property: for any set of boundaries, every r in (0,1] maps to the slice
// that contains it, and Index is consistent with Of.
func TestPartitionIndexConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(20)
		bounds := make([]float64, 0, k)
		for len(bounds) < k-1 {
			b := rng.Float64()
			if b > 0 && b < 1 {
				bounds = append(bounds, b)
			}
		}
		sort.Float64s(bounds)
		dup := false
		for i := 1; i < len(bounds); i++ {
			if bounds[i] == bounds[i-1] {
				dup = true
			}
		}
		if dup {
			continue
		}
		p, err := NewPartition(bounds...)
		if err != nil {
			t.Fatalf("NewPartition(%v): %v", bounds, err)
		}
		for probe := 0; probe < 50; probe++ {
			r := rng.Float64()
			if r == 0 {
				continue
			}
			idx := p.Index(r)
			if !p.Slice(idx).Contains(r) {
				t.Fatalf("partition %v: Index(%v)=%d but slice %v does not contain it",
					bounds, r, idx, p.Slice(idx))
			}
		}
	}
}

// Property: slices of a random equal partition tile (0,1] exactly.
func TestEqualPartitionTiles(t *testing.T) {
	f := func(k8 uint8) bool {
		k := int(k8%64) + 1
		p := MustEqual(k)
		total := 0.0
		for _, s := range p.Slices() {
			total += s.Width()
		}
		return math.Abs(total-1) < 1e-9 && p.Len() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// lowerBoundOracle is the binary search Partition used before it grew
// a grid index: the first i with bounds[i] >= r.
func lowerBoundOracle(bounds []float64, r float64) int {
	return sort.SearchFloat64s(bounds, r)
}

// nearestBoundaryOracle is NearestBoundary over lowerBoundOracle.
func nearestBoundaryOracle(bounds []float64, r float64) (boundary, dist float64) {
	i := lowerBoundOracle(bounds, r)
	boundary, dist = math.NaN(), math.Inf(1)
	if i < len(bounds) {
		boundary, dist = bounds[i], bounds[i]-r
	}
	if i > 0 && r-bounds[i-1] < dist {
		boundary, dist = bounds[i-1], r-bounds[i-1]
	}
	return boundary, dist
}

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkLookup asserts that every lookup method of p answers r exactly
// as the oracle does over bounds (p's sorted interior boundaries).
func checkLookup(t *testing.T, p Partition, bounds []float64, r float64) {
	t.Helper()
	want := lowerBoundOracle(bounds, r)
	if got := p.Index(r); got != want {
		t.Fatalf("Index(%v [%#x]) = %d, oracle %d (k=%d)", r, math.Float64bits(r), got, want, p.Len())
	}
	if got, wantS := p.Of(r), p.Slice(want); got != wantS {
		t.Fatalf("Of(%v) = %v, oracle %v", r, got, wantS)
	}
	wantB, wantD := nearestBoundaryOracle(bounds, r)
	gotB, gotD := p.NearestBoundary(r)
	if !sameFloat(gotB, wantB) || !sameFloat(gotD, wantD) {
		t.Fatalf("NearestBoundary(%v [%#x]) = (%v, %v), oracle (%v, %v) (k=%d)",
			r, math.Float64bits(r), gotB, gotD, wantB, wantD, p.Len())
	}
	if got := p.BoundaryDistance(r); !sameFloat(got, wantD) {
		t.Fatalf("BoundaryDistance(%v) = %v, oracle %v", r, got, wantD)
	}
}

// specialRanks are the inputs the grid must answer before it multiplies.
var specialRanks = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, -1e300, 1e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022,
	math.Nextafter(1, 0), math.Nextafter(1, 2), math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// clusteredBounds packs boundaries the way a grid likes least: runs one
// ulp apart, several in one cell, and values adjacent to 0 and to 1.
func clusteredBounds() []float64 {
	b := []float64{math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 0x1p-1022,
		0.05, 0.0625, 0.07, 0.8, math.Nextafter(1, 0)}
	for x, i := 0.3, 0; i < 6; i++ {
		b = append(b, x)
		x = math.Nextafter(x, 1)
	}
	for x, i := 0.5, 0; i < 3; i++ { // straddles a cell edge
		x = math.Nextafter(x, 0)
		b = append(b, x)
	}
	return append(b, 0.5, math.Nextafter(0.5, 1))
}

func TestPartitionLookupMatchesOracle(t *testing.T) {
	var parts []Partition
	for _, k := range []int{1, 2, 3, 4, 5, 7, 10, 64, 100, 1000, 4096} {
		parts = append(parts, MustEqual(k))
	}
	rng := rand.New(rand.NewSource(7))
	custom := [][]float64{nil, {0.8}, {0.05, 0.0625, 0.07, 0.8}, clusteredBounds()}
	for trial := 0; trial < 20; trial++ {
		b := make([]float64, 1+rng.Intn(40))
		for i := range b {
			b[i] = rng.Float64()*rng.Float64() + math.SmallestNonzeroFloat64
		}
		custom = append(custom, b)
	}
	for _, b := range custom {
		p, err := NewPartition(b...)
		if err != nil {
			t.Fatalf("NewPartition(%v): %v", b, err)
		}
		parts = append(parts, p)
	}
	parts = append(parts, Partition{})
	for _, p := range parts {
		if err := p.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		bounds := p.Boundaries()
		for _, r := range specialRanks {
			checkLookup(t, p, bounds, r)
		}
		for _, b := range bounds {
			checkLookup(t, p, bounds, b)
			checkLookup(t, p, bounds, math.Nextafter(b, 2))
			checkLookup(t, p, bounds, math.Nextafter(b, -1))
		}
		for g := 0; g <= 4096; g++ { // every cell edge of every grid up to 4096 cells
			checkLookup(t, p, bounds, float64(g)/4096)
		}
		for i := 0; i < 2000; i++ {
			checkLookup(t, p, bounds, rng.Float64())
		}
	}
}

// The zero Partition is how scenario/livecluster.go and sim.Config say
// "not set": it must stay the single slice (0,1].
func TestZeroPartitionIsSingleSlice(t *testing.T) {
	var p Partition
	if p.Len() != 1 || p.Index(0.7) != 0 || p.Validate() != nil || len(p.Boundaries()) != 0 {
		t.Errorf("zero Partition: Len %d, Index %d, Validate %v, Boundaries %v",
			p.Len(), p.Index(0.7), p.Validate(), p.Boundaries())
	}
	if b, d := p.NearestBoundary(0.7); !math.IsNaN(b) || !math.IsInf(d, 1) {
		t.Errorf("zero Partition NearestBoundary = (%v, %v), want (NaN, +Inf)", b, d)
	}
	if got, want := p.Slice(0), (Slice{Low: 0, High: 1}); got != want {
		t.Errorf("zero Partition Slice(0) = %v, want %v", got, want)
	}
	if got := p.String(); got != MustEqual(1).String() {
		t.Errorf("zero Partition String = %q, want %q", got, MustEqual(1).String())
	}
	// Every protocol node embeds a Partition by value.
	if got := unsafe.Sizeof(p); got != 8 {
		t.Errorf("unsafe.Sizeof(Partition{}) = %d, want 8", got)
	}
}

// fuzzReader hands out the fuzzer's bytes, then zeros.
type fuzzReader []byte

func (f *fuzzReader) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzReader) uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(f.byte()) << (8 * i)
	}
	return v
}

// unit maps v onto a multiple of 2^-53 in [0,1).
func unit(v uint64) float64 { return float64(v>>11) / (1 << 53) }

// fuzzPartition decodes a partition: an even first byte gives Equal(k),
// k in [1, 4096]; an odd one up to 32 custom boundaries, each placed
// uniformly, a few ulps above the previous one (so runs share a grid
// cell), next to 0, or next to 1.
func fuzzPartition(t *testing.T, in *fuzzReader) Partition {
	if in.byte()%2 == 0 {
		return MustEqual(1 + int(in.uint64()%4096))
	}
	seen := map[float64]bool{}
	prev := math.SmallestNonzeroFloat64
	for n := int(in.byte() % 33); n > 0; n-- {
		op, v := in.byte(), in.uint64()
		b := unit(v)
		switch op % 4 {
		case 1:
			b = prev
			for i := v%8 + 1; i > 0; i-- {
				b = math.Nextafter(b, 1)
			}
		case 2:
			b = math.Float64frombits(1 + v%4096)
		case 3:
			b = math.Float64frombits(math.Float64bits(1) - 1 - v%4096)
		}
		if b > 0 && b < 1 {
			seen[b] = true
			prev = b
		}
	}
	bounds := make([]float64, 0, len(seen))
	for b := range seen {
		bounds = append(bounds, b)
	}
	p, err := NewPartition(bounds...)
	if err != nil {
		t.Fatalf("NewPartition(%v): %v", bounds, err)
	}
	return p
}

// fuzzRank decodes a rank: arbitrary bits (NaNs, infinities, negatives,
// subnormals, > 1), uniform, a boundary or its neighbour either side, a
// special value, or a cell edge or the float just below one.
func fuzzRank(in *fuzzReader, bounds []float64) float64 {
	kind, v := in.byte()%8, in.uint64()
	if len(bounds) == 0 && kind >= 2 && kind <= 4 {
		kind = 1
	}
	switch kind {
	case 0:
		return math.Float64frombits(v)
	case 2:
		return bounds[v%uint64(len(bounds))]
	case 3:
		return math.Nextafter(bounds[v%uint64(len(bounds))], 2)
	case 4:
		return math.Nextafter(bounds[v%uint64(len(bounds))], -1)
	case 5:
		return specialRanks[v%uint64(len(specialRanks))]
	case 6:
		return float64(v%16385) / 16384
	case 7:
		return math.Nextafter(float64(v%16385)/16384, -1)
	}
	return unit(v)
}

// FuzzPartitionLookup holds the grid lookup equal to the binary search,
// bit for bit, on whatever partition and rank the fuzzer decodes. The
// seed corpus in testdata/fuzz/FuzzPartitionLookup runs under plain
// `go test`; `make fuzz` mutates from it.
func FuzzPartitionLookup(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzReader(data)
		p := fuzzPartition(t, &in)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		bounds := p.Boundaries()
		checkLookup(t, p, bounds, fuzzRank(&in, bounds))
	})
}

var lookupSink float64

// BenchmarkPartitionLookup prices one slice lookup on ranks the branch
// predictor cannot learn (a fixed-seed table, not a counter): this is
// the call the ranking tick makes per neighbor per cycle.
func BenchmarkPartitionLookup(b *testing.B) {
	clustered, err := NewPartition(clusteredBounds()...)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ranks := make([]float64, 1<<12)
	for i := range ranks {
		ranks[i] = rng.Float64()
	}
	for _, bc := range []struct {
		name string
		p    Partition
	}{
		{"equal-10", MustEqual(10)},
		{"equal-100", MustEqual(100)},
		{"custom-clustered", clustered},
	} {
		b.Run(bc.name+"/Index", func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += bc.p.Index(ranks[i&(len(ranks)-1)])
			}
			lookupSink = float64(sum)
		})
		b.Run(bc.name+"/NearestBoundary", func(b *testing.B) {
			sum := 0.0
			for i := 0; i < b.N; i++ {
				_, d := bc.p.NearestBoundary(ranks[i&(len(ranks)-1)])
				sum += d
			}
			lookupSink = sum
		})
	}
}
