package sortlist

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"concat/internal/bit"
	"concat/internal/component"
	"concat/internal/components/oblist"
	"concat/internal/domain"
	"concat/internal/mutation"
	"concat/internal/tspec"
)

func ints(vs ...int64) []domain.Value {
	out := make([]domain.Value, len(vs))
	for i, v := range vs {
		out[i] = domain.Int(v)
	}
	return out
}

func sortableOf(vs ...int64) *SortableObList {
	s := NewSortableObList(10, nil)
	s.SetValues(ints(vs...))
	return s
}

func assertSorted(t *testing.T, s *SortableObList, want ...int64) {
	t.Helper()
	got := s.Values()
	if len(got) != len(want) {
		t.Fatalf("values = %v, want %v", got, want)
	}
	for i, w := range want {
		if got[i].MustInt() != w {
			t.Fatalf("values[%d] = %v, want %d", i, got[i], w)
		}
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatalf("invariant: %v", err)
	}
}

func TestSortsOnKnownInputs(t *testing.T) {
	inputs := [][]int64{
		{},
		{1},
		{2, 1},
		{3, 1, 2},
		{5, 4, 3, 2, 1},
		{1, 2, 3, 4, 5},
		{7, 7, 7},
		{9, 1, 8, 2, 7, 3},
	}
	sorters := []struct {
		name string
		run  func(*SortableObList) error
	}{
		{"Sort1", (*SortableObList).Sort1},
		{"Sort2", (*SortableObList).Sort2},
		{"ShellSort", (*SortableObList).ShellSort},
	}
	for _, srt := range sorters {
		for _, in := range inputs {
			s := sortableOf(in...)
			if err := srt.run(s); err != nil {
				t.Fatalf("%s(%v): %v", srt.name, in, err)
			}
			want := append([]int64(nil), in...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			assertSorted(t, s, want...)
			if !s.SortedHint() {
				t.Errorf("%s should set the sorted hint", srt.name)
			}
		}
	}
}

func TestSortsAgreeProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		in := make([]int64, len(raw))
		for i, v := range raw {
			in[i] = int64(v)
		}
		a, b, c := sortableOf(in...), sortableOf(in...), sortableOf(in...)
		if a.Sort1() != nil || b.Sort2() != nil || c.ShellSort() != nil {
			return false
		}
		va, vb, vc := a.Values(), b.Values(), c.Values()
		for i := range va {
			if !va[i].Equal(vb[i]) || !va[i].Equal(vc[i]) {
				return false
			}
		}
		// And against the reference sort.
		want := append([]int64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i, w := range want {
			if va[i].MustInt() != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFindMaxMin(t *testing.T) {
	s := sortableOf(3, 9, 1, 7)
	maxV, err := s.FindMax()
	if err != nil || maxV.MustInt() != 9 {
		t.Errorf("FindMax = %v, %v", maxV, err)
	}
	minV, err := s.FindMin()
	if err != nil || minV.MustInt() != 1 {
		t.Errorf("FindMin = %v, %v", minV, err)
	}
	empty := sortableOf()
	if _, err := empty.FindMax(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty FindMax err = %v", err)
	}
	if _, err := empty.FindMin(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty FindMin err = %v", err)
	}
}

func TestFindMaxMinProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		in := make([]int64, len(raw))
		hi, lo := int64(raw[0]), int64(raw[0])
		for i, v := range raw {
			in[i] = int64(v)
			if in[i] > hi {
				hi = in[i]
			}
			if in[i] < lo {
				lo = in[i]
			}
		}
		s := sortableOf(in...)
		maxV, err1 := s.FindMax()
		minV, err2 := s.FindMin()
		return err1 == nil && err2 == nil && maxV.MustInt() == hi && minV.MustInt() == lo
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRedefinedMutatorsTrackMods(t *testing.T) {
	s := sortableOf(1, 2, 3)
	if err := s.Sort1(); err != nil {
		t.Fatal(err)
	}
	if !s.SortedHint() || s.Mods() != 0 {
		t.Fatalf("after sort: hint=%v mods=%d", s.SortedHint(), s.Mods())
	}
	if err := s.SetAt(0, domain.Int(9)); err != nil {
		t.Fatal(err)
	}
	if s.SortedHint() || s.Mods() != 1 {
		t.Errorf("after SetAt: hint=%v mods=%d", s.SortedHint(), s.Mods())
	}
	if err := s.InsertBefore(0, domain.Int(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertAfter(0, domain.Int(6)); err != nil {
		t.Fatal(err)
	}
	if s.Mods() != 3 {
		t.Errorf("mods = %d, want 3", s.Mods())
	}
	// Errors do not bump the counter.
	if err := s.SetAt(99, domain.Int(0)); err == nil {
		t.Fatal("out-of-range SetAt should fail")
	}
	if s.Mods() != 3 {
		t.Errorf("failed SetAt bumped mods to %d", s.Mods())
	}
}

func TestInstanceDispatchesSubclassMethods(t *testing.T) {
	f := NewFactory()
	inst, err := f.New("SortableObList", nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.SetBITMode(bit.ModeTest)
	for _, v := range []int64{3, 1, 2} {
		if _, err := inst.Invoke("AddTail", ints(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inst.Invoke("Sort1", nil); err != nil {
		t.Fatalf("Sort1: %v", err)
	}
	out, err := inst.Invoke("GetHead", nil)
	if err != nil || out[0].MustInt() != 1 {
		t.Errorf("after sort GetHead = %v, %v", out, err)
	}
	out, err = inst.Invoke("FindMax", nil)
	if err != nil || out[0].MustInt() != 3 {
		t.Errorf("FindMax = %v, %v", out, err)
	}
	out, err = inst.Invoke("FindMin", nil)
	if err != nil || out[0].MustInt() != 1 {
		t.Errorf("FindMin = %v, %v", out, err)
	}
	// Redefined SetAt goes through the subclass (mods counter moves).
	if _, err := inst.Invoke("SetAt", ints(0, 42)); err != nil {
		t.Fatal(err)
	}
	if inst.(*Instance).Mods() != 1 {
		t.Error("dispatched SetAt did not go through the subclass override")
	}
	if err := inst.InvariantTest(); err != nil {
		t.Errorf("invariant: %v", err)
	}
	var sb strings.Builder
	if err := inst.Reporter(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "SortableObList{count: 3") {
		t.Errorf("report = %q", sb.String())
	}
	if err := inst.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("GetCount", nil); !errors.Is(err, component.ErrDestroyed) {
		t.Errorf("post-destroy err = %v", err)
	}
}

func TestInstanceSortVariants(t *testing.T) {
	for _, m := range []string{"Sort1", "Sort2", "ShellSort"} {
		f := NewFactory()
		inst, _ := f.New("SortableObListSized", ints(16))
		inst.SetBITMode(bit.ModeTest)
		for _, v := range []int64{5, 2, 9, 2} {
			if _, err := inst.Invoke("AddHead", ints(v)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := inst.Invoke(m, nil); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		out, err := inst.Invoke("GetHead", nil)
		if err != nil || out[0].MustInt() != 2 {
			t.Errorf("%s head = %v, %v", m, out, err)
		}
	}
}

func TestFactoryErrors(t *testing.T) {
	f := NewFactory()
	if f.Name() != Name {
		t.Errorf("Name() = %q", f.Name())
	}
	if _, err := f.New("Nope", nil); err == nil {
		t.Error("unknown ctor should fail")
	}
	if _, err := f.New("SortableObList", ints(1)); err == nil {
		t.Error("no-arg ctor with args should fail")
	}
	if _, err := f.New("SortableObListSized", nil); err == nil {
		t.Error("sized ctor without args should fail")
	}
}

func TestSpecValidAndExtendsParent(t *testing.T) {
	s := Spec()
	if err := s.Validate(); err != nil {
		t.Fatalf("spec invalid: %v", err)
	}
	if s.Class.Superclass != oblist.Name {
		t.Errorf("superclass = %q", s.Class.Superclass)
	}
	inherited, redefined, added := tspec.DiffSpecs(oblist.Spec(), s).Split(s)
	wantNew := []string{"FindMax", "FindMin", "ShellSort", "Sort1", "Sort2",
		"SortableObList", "SortableObListSized", "~SortableObList"}
	if !reflect.DeepEqual(added, wantNew) {
		t.Errorf("new methods = %v, want %v", added, wantNew)
	}
	wantRedef := []string{"InsertAfter", "InsertBefore", "SetAt"}
	if !reflect.DeepEqual(redefined, wantRedef) {
		t.Errorf("redefined = %v, want %v", redefined, wantRedef)
	}
	wantInh := []string{"AddHead", "AddTail", "Find", "GetAt", "GetCount", "GetHead", "GetTail",
		"IsEmpty", "RemoveAll", "RemoveAt", "RemoveHead", "RemoveTail"}
	if !reflect.DeepEqual(inherited, wantInh) {
		t.Errorf("inherited = %v, want %v", inherited, wantInh)
	}
}

func TestSitesCoverTheFiveMethods(t *testing.T) {
	eng := mutation.NewEngine()
	eng.MustRegisterSites(Sites()...)
	got := eng.Methods()
	want := []string{"FindMax", "FindMin", "ShellSort", "Sort1", "Sort2"}
	if len(got) != len(want) {
		t.Fatalf("methods = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("methods[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestMutatedSortViolatesPostcondition(t *testing.T) {
	eng := mutation.NewEngine()
	eng.MustRegisterSites(Sites()...)
	// Sort1/i replaced by global mods (always 0 here): outer loop exits
	// immediately, the list stays unsorted.
	var target mutation.Mutant
	for _, m := range eng.Enumerate([]mutation.Operator{mutation.OpRepGlob}, []string{"Sort1"}) {
		if m.Site == "Sort1/i" && m.Replacement == "mods" {
			target = m
		}
	}
	if target.ID == "" {
		t.Fatal("target mutant not found")
	}
	if err := eng.Activate(target); err != nil {
		t.Fatal(err)
	}
	s := NewSortableObList(10, eng)
	s.SetValues(ints(3, 1, 2))
	err := s.Sort1()
	if !errors.Is(err, &bit.Violation{Kind: bit.KindPostcondition}) {
		t.Errorf("mutated Sort1 err = %v, want postcondition violation", err)
	}
}

func TestRunawayMutantPanics(t *testing.T) {
	eng := mutation.NewEngine()
	eng.MustRegisterSites(Sites()...)
	// Sort1/j pinned to constant 1: the inner loop can never terminate
	// normally; the iteration bound must fire.
	var target mutation.Mutant
	for _, m := range eng.Enumerate([]mutation.Operator{mutation.OpRepReq}, []string{"Sort1"}) {
		if m.Site == "Sort1/j" && m.Constant.Equal(domain.Int(1)) {
			target = m
		}
	}
	if target.ID == "" {
		t.Fatal("target mutant not found")
	}
	if err := eng.Activate(target); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("runaway mutant should panic at the iteration bound")
		}
	}()
	s := NewSortableObList(10, eng)
	s.SetValues(ints(5, 4, 3, 2, 1, 9, 8, 7))
	_ = s.Sort1()
}

func TestEquivalentMutantStaysClean(t *testing.T) {
	eng := mutation.NewEngine()
	eng.MustRegisterSites(Sites()...)
	// Sort2/minIdx starts as i, so RepLoc(i) is the original program.
	var target mutation.Mutant
	for _, m := range eng.Enumerate([]mutation.Operator{mutation.OpRepLoc}, []string{"Sort2"}) {
		if m.Site == "Sort2/minIdx" && m.Replacement == "i" {
			target = m
		}
	}
	if target.ID == "" {
		t.Fatal("target mutant not found")
	}
	if err := eng.Activate(target); err != nil {
		t.Fatal(err)
	}
	s := NewSortableObList(10, eng)
	s.SetValues(ints(3, 1, 2))
	if err := s.Sort2(); err != nil {
		t.Fatalf("equivalent mutant changed behaviour: %v", err)
	}
	assertSorted(t, s, 1, 2, 3)
	if eng.Infected() {
		t.Error("equivalent mutant should never infect")
	}
	if !eng.Reached() {
		t.Error("equivalent mutant site should be reached")
	}
}
