package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// canonicalProc is a record as a 64-processor run journals it.
const canonicalProc = `{"CPU":17745,"LoadStall":3120,"MergeStall":88,"SyncWait":9021,` +
	`"Reads":4410,"Writes":1203,"ReadHits":4002,"WriteHits":1100,"ReadMisses":380,` +
	`"WriteMisses":61,"Upgrades":30,"Merges":28,"WriteMerges":12,"LocalClean":95,` +
	`"LocalDirty":3,"RemoteClean":270,"RemoteDirty":41,"IntraCluster":32}`

// procBase is the value every equivalence check decodes into, so that
// fields an input leaves out must keep their earlier values.
var procBase = Proc{
	Breakdown: Breakdown{CPU: 7, LoadStall: -7, SyncWait: 1},
	Counters:  Counters{Reads: 9, IntraCluster: 3},
}

// checkMatchesReflective decodes b into procBase three ways — the
// method itself, encoding/json through the method, and the reflective
// decoder on procFields — and requires the same value and the same
// error outcome from all three.
func checkMatchesReflective(t *testing.T, b []byte) {
	t.Helper()
	want := procBase
	wantErr := json.Unmarshal(b, (*procFields)(&want))

	direct := procBase
	directErr := direct.UnmarshalJSON(b)
	nested := procBase
	nestedErr := json.Unmarshal(b, &nested)

	for _, got := range []struct {
		how string
		p   Proc
		err error
	}{{"UnmarshalJSON", direct, directErr}, {"json.Unmarshal", nested, nestedErr}} {
		if (got.err == nil) != (wantErr == nil) {
			t.Errorf("%s(%q): err = %v, reflective err = %v", got.how, b, got.err, wantErr)
		}
		if got.p != want {
			t.Errorf("%s(%q) = %+v, reflective = %+v", got.how, b, got.p, want)
		}
	}
}

// TestProcUnmarshalFieldCoverage gives every field of Proc a distinct
// value and requires the fast path to decode encoding/json's output for
// it exactly: a field added without a key in Proc.field fails here
// instead of quietly sending every record down the reflective path.
func TestProcUnmarshalFieldCoverage(t *testing.T) {
	var want Proc
	v := reflect.ValueOf(&want).Elem()
	n := 0
	for _, f := range reflect.VisibleFields(v.Type()) {
		if f.Anonymous {
			continue
		}
		n++
		fv := v.FieldByIndex(f.Index)
		switch fv.Kind() {
		case reflect.Int64:
			fv.SetInt(-int64(n) * 1_000_003)
		case reflect.Uint64:
			fv.SetUint(uint64(n) * 1_000_033)
		default:
			t.Fatalf("field %s has kind %s; the fast path decodes only int64 and uint64", f.Name, fv.Kind())
		}
	}
	want.CPU = math.MinInt64
	want.SyncWait = math.MaxInt64
	want.IntraCluster = math.MaxUint64

	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Proc
	if !got.decodeFlat(b) {
		t.Fatalf("fast path rejected encoding/json's own output %s", b)
	}
	if got != want {
		t.Fatalf("fast path decoded %+v, want %+v", got, want)
	}
	checkMatchesReflective(t, b)
}

// procInputs are the equivalence cases and the fuzz seeds. fast says
// whether the input must take the fast path: the shapes encoding/json
// writes (and harmless variations of them) must, the rest must fall
// back.
var procInputs = []struct {
	in   string
	fast bool
}{
	{canonicalProc, true},
	{`{}`, true},
	{" {\t\"CPU\" :\n5 , \"Reads\": 0\r} ", true},
	{`{"CPU":-0}`, true},
	{`{"CPU":1,"CPU":2}`, true},
	{`{"cpu":1}`, false},
	{`{"Bogus":1,"CPU":2}`, false},
	{`{"\u0043PU":1}`, false},
	{`null`, false},
	{`{"CPU":1.5}`, false},
	{`{"CPU":1e3}`, false},
	{`{"CPU":01}`, false},
	{`{"Reads":-1}`, false},
	{`{"Reads":18446744073709551616}`, false},
	{`{"CPU":-9223372036854775809}`, false},
	{`{"CPU":"1"}`, false},
	{`{"CPU":1,}`, false},
	{`{"CPU" 1}`, false},
	{`{"CPU":1 "Reads":2}`, false},
	{`{"CPU":1}x`, false},
	{canonicalProc[:len(canonicalProc)/2], false},
}

// TestProcUnmarshalFastPath pins which inputs take the fast path, and
// that every one decodes as the reflective decoder does.
func TestProcUnmarshalFastPath(t *testing.T) {
	for _, tc := range procInputs {
		var p Proc
		if got := p.decodeFlat([]byte(tc.in)); got != tc.fast {
			t.Errorf("decodeFlat(%q) = %v, want %v", tc.in, got, tc.fast)
		}
		checkMatchesReflective(t, []byte(tc.in))
	}
}

// FuzzProcUnmarshal is the differential check: on any input, the fast
// decoder and the reflective one agree on the value and on failure.
func FuzzProcUnmarshal(f *testing.F) {
	for _, tc := range procInputs {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkMatchesReflective(t, b)
	})
}

var benchProc Proc

func BenchmarkProcUnmarshal(b *testing.B) {
	in := []byte(canonicalProc)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := json.Unmarshal(in, &benchProc); err != nil {
			b.Fatal(err)
		}
	}
}
