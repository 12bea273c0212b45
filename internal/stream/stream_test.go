package stream

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/hourglass/sbon/internal/query"
)

func collect() (Emit, *[]Tuple) {
	out := &[]Tuple{}
	return func(t Tuple) { *out = append(*out, t) }, out
}

func TestKeyFractionRangeAndDeterminism(t *testing.T) {
	for k := int64(0); k < 1000; k++ {
		f := keyFraction(k, 0)
		if f < 0 || f >= 1 {
			t.Fatalf("keyFraction(%d) = %v out of [0,1)", k, f)
		}
		if f != keyFraction(k, 0) {
			t.Fatalf("keyFraction(%d) not deterministic", k)
		}
	}
	if keyFraction(42, 1) == keyFraction(42, 2) {
		t.Fatal("salt has no effect")
	}
}

func TestFilterSelectivity(t *testing.T) {
	f := Filter{Sel: 0.3}
	emit, out := collect()
	const n = 10000
	for k := int64(0); k < n; k++ {
		f.Process(0, Tuple{Key: k, SizeKB: 1}, emit)
	}
	got := float64(len(*out)) / n
	if math.Abs(got-0.3) > 0.03 {
		t.Fatalf("measured selectivity %v, want ≈0.3", got)
	}
}

func TestFilterDeterministicPerKey(t *testing.T) {
	f := Filter{Sel: 0.5}
	emit1, out1 := collect()
	emit2, out2 := collect()
	for k := int64(0); k < 100; k++ {
		f.Process(0, Tuple{Key: k}, emit1)
		f.Process(0, Tuple{Key: k}, emit2)
	}
	if len(*out1) != len(*out2) {
		t.Fatal("filter not deterministic")
	}
}

func TestJoinMatchesEqualKeys(t *testing.T) {
	j := NewJoin(8, 16)
	emit, out := collect()
	j.Process(0, Tuple{Key: 7, Value: 1, SizeKB: 1}, emit)
	if len(*out) != 0 {
		t.Fatal("join emitted before any match")
	}
	j.Process(1, Tuple{Key: 7, Value: 2, SizeKB: 2}, emit)
	if len(*out) != 1 {
		t.Fatalf("join emitted %d tuples, want 1", len(*out))
	}
	got := (*out)[0]
	if got.Value != 3 || got.SizeKB != 3 {
		t.Fatalf("joined tuple = %+v", got)
	}
}

func TestJoinNoMatchAcrossDifferentKeys(t *testing.T) {
	j := NewJoin(8, 16)
	emit, out := collect()
	j.Process(0, Tuple{Key: 1}, emit)
	j.Process(1, Tuple{Key: 2}, emit)
	if len(*out) != 0 {
		t.Fatal("join matched different keys")
	}
}

func TestJoinMultipleMatches(t *testing.T) {
	j := NewJoin(8, 16)
	emit, out := collect()
	j.Process(0, Tuple{Key: 5, Value: 1}, emit)
	j.Process(0, Tuple{Key: 5, Value: 2}, emit)
	j.Process(1, Tuple{Key: 5, Value: 10}, emit)
	if len(*out) != 2 {
		t.Fatalf("emitted %d, want 2 (one per left match)", len(*out))
	}
}

func TestJoinWindowEviction(t *testing.T) {
	j := NewJoin(2, 16)
	emit, out := collect()
	j.Process(0, Tuple{Key: 1}, emit)
	j.Process(0, Tuple{Key: 2}, emit)
	j.Process(0, Tuple{Key: 3}, emit) // evicts key 1
	j.Process(1, Tuple{Key: 1}, emit)
	if len(*out) != 0 {
		t.Fatal("evicted tuple still matched")
	}
	j.Process(1, Tuple{Key: 3}, emit)
	if len(*out) != 1 {
		t.Fatalf("in-window tuple not matched: %d", len(*out))
	}
}

func TestJoinSymmetricSides(t *testing.T) {
	j := NewJoin(8, 16)
	emit, out := collect()
	j.Process(1, Tuple{Key: 9, Value: 4}, emit)
	j.Process(0, Tuple{Key: 9, Value: 5}, emit)
	if len(*out) != 1 || (*out)[0].Value != 9 {
		t.Fatalf("symmetric join failed: %+v", *out)
	}
}

func TestJoinCreatedUsesTriggeringInput(t *testing.T) {
	j := NewJoin(8, 16)
	emit, out := collect()
	early := time.Now().Add(-time.Second)
	late := time.Now()
	j.Process(0, Tuple{Key: 1, Created: early}, emit)
	j.Process(1, Tuple{Key: 1, Created: late}, emit)
	// Delivery latency is measured from the probe tuple; the matched
	// tuple's window residency is state age, not delay.
	if (*out)[0].Created != late {
		t.Fatal("joined tuple should carry the triggering tuple's timestamp")
	}
}

// Measured join output rate over uniform keys must track window/keyspace,
// the engine's rate-faithfulness contract.
func TestJoinRateFaithfulness(t *testing.T) {
	const keyspace = 500
	const window = 50 // sel = 0.1
	j := NewJoin(window, keyspace)
	emit, out := collect()
	rng := rand.New(rand.NewSource(11))
	const n = 20000
	for i := int64(0); i < n; i++ {
		j.Process(int(i%2), Tuple{Key: rng.Int63n(keyspace), SizeKB: 1}, emit)
	}
	// Expected: each probe matches ≈ window/keyspace entries.
	gotPerProbe := float64(len(*out)) / n
	want := float64(window) / keyspace
	if math.Abs(gotPerProbe-want) > want*0.3 {
		t.Fatalf("matches per probe %v, want ≈%v", gotPerProbe, want)
	}
}

func TestAggregateWindows(t *testing.T) {
	a := NewAggregate(4, 0.5)
	emit, out := collect()
	for i := 1; i <= 8; i++ {
		a.Process(0, Tuple{Value: float64(i), SizeKB: 1}, emit)
	}
	if len(*out) != 2 {
		t.Fatalf("emitted %d windows, want 2", len(*out))
	}
	if (*out)[0].Value != 2.5 { // mean of 1..4
		t.Fatalf("first window mean = %v, want 2.5", (*out)[0].Value)
	}
	if (*out)[0].SizeKB != 2 { // 4 KB * 0.5
		t.Fatalf("first window size = %v, want 2", (*out)[0].SizeKB)
	}
}

func TestAggregateCarriesClosingTimestamp(t *testing.T) {
	a := NewAggregate(2, 1)
	emit, out := collect()
	early := time.Now().Add(-time.Minute)
	closing := time.Now()
	a.Process(0, Tuple{Created: early}, emit)
	a.Process(0, Tuple{Created: closing}, emit)
	if (*out)[0].Created != closing {
		t.Fatal("aggregate must carry the window-closing timestamp")
	}
}

func TestUnionPassthrough(t *testing.T) {
	emit, out := collect()
	(Union{}).Process(0, Tuple{Key: 1}, emit)
	(Union{}).Process(1, Tuple{Key: 2}, emit)
	if len(*out) != 2 {
		t.Fatalf("union emitted %d, want 2", len(*out))
	}
}

func TestOperatorForMapping(t *testing.T) {
	source0 := &query.PlanNode{Kind: query.KindSource}
	cases := []struct {
		node *query.PlanNode
		want Operator
	}{
		{&query.PlanNode{Kind: query.KindFilter, Sel: 0.5, Left: source0}, Filter{}},
		{&query.PlanNode{Kind: query.KindJoin, Sel: 0.1}, &Join{}},
		{&query.PlanNode{Kind: query.KindAggregate, Sel: 0.2, Left: source0}, &Aggregate{}},
		{&query.PlanNode{Kind: query.KindUnion}, Union{}},
	}
	for _, tc := range cases {
		op, err := OperatorFor(tc.node, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.TypeOf(op) != reflect.TypeOf(tc.want) {
			t.Fatalf("OperatorFor(%v) = %T, want %T", tc.node.Kind, op, tc.want)
		}
	}
	if _, err := OperatorFor(source0, 1000); err == nil {
		t.Fatal("OperatorFor(source) accepted")
	}
}

// TestOperatorForRejectsEmptyKeyspace: a join sizes its key table from
// the keyspace, so OperatorFor refuses one that is not positive.
func TestOperatorForRejectsEmptyKeyspace(t *testing.T) {
	for _, keyspace := range []int64{0, -1} {
		if _, err := OperatorFor(&query.PlanNode{Kind: query.KindJoin, Sel: 0.1}, keyspace); err == nil {
			t.Fatalf("OperatorFor(join, keyspace %d) accepted", keyspace)
		}
	}
}

func TestOperatorForJoinWindowFloor(t *testing.T) {
	op, err := OperatorFor(&query.PlanNode{Kind: query.KindJoin, Sel: 0.00001}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if op.(*Join).Window < 1 {
		t.Fatal("join window below 1")
	}
}
