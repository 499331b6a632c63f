package tspec

import (
	"maps"
	"slices"
	"sort"
	"testing"
)

// diffFrame picks how a DiffSpecs row relates its two specs.
type diffFrame int

const (
	// revision: old and new are two revisions of the class Base.
	revision diffFrame = iota
	// subclass: new is Sub, a subclass of Base.
	subclass
)

// diffRow is one DiffSpecs case: both specs start as clones of the base
// spec, edit changes them, and want lists every impacted method with its
// reason — a method of the new spec not in want must be absent from the
// delta (unchanged, or inherited in the subclass frame).
type diffRow struct {
	name    string
	frame   diffFrame
	edit    func(old, new *Spec)
	want    map[string]string
	removed []string
	model   bool
}

// Indexes of Add(v) and Get() in the base spec's methods.
const addIdx, getIdx = 2, 3

// link names old and new as one link of the chain Base -> L1 -> L2 -> L3.
func link(old, new *Spec, parent, child string) {
	old.Class.Name = parent
	new.Class.Name, new.Class.Superclass = child, parent
}

func addReset(s *Spec) {
	s.Methods = append(s.Methods, Method{ID: "m9", Name: "Reset", Category: CatUpdate})
}

func addParam(i int, p Param) func(_, new *Spec) {
	return func(_, new *Spec) { new.Methods[i].Params = append(new.Methods[i].Params, p) }
}

func setAddDomain(s *Spec, d DomainDecl) {
	s.Methods[addIdx].Params[0].Domain = d
}

func redomainAdd(d DomainDecl) func(_, new *Spec) {
	return func(_, new *Spec) { setAddDomain(new, d) }
}

// diffTable is the one test table for DiffSpecs, in both frames. Its rows
// are filed under the tests that run them; each such test runs its rows
// through runDiffRows.
var diffTable = map[string][]diffRow{
	// Revision frame: old and new are one class before and after an edit.
	"TestDiffSpecsIdenticalIsEmpty": {
		{name: "identical revision", frame: revision},
	},
	"TestDiffSpecsDomainChange": {
		{name: "parameter domain narrowed", frame: revision, edit: redomainAdd(RangeInt(1, 5)),
			want: map[string]string{"Add": ReasonDomainChanged}},
	},
	"TestDiffSpecsSignatureAndConstructorChanges": {
		{name: "added parameter", frame: revision, edit: addParam(addIdx, Param{Name: "w", Domain: RangeInt(0, 1)}),
			want: map[string]string{"Add": ReasonSignatureChanged}},
		{name: "constructor gains parameter", frame: revision, edit: addParam(0, Param{Name: "capacity", Domain: RangeInt(1, 8)}),
			want: map[string]string{"Base": ReasonSignatureChanged}},
		{name: "return type change", frame: revision, edit: func(_, n *Spec) { n.Methods[getIdx].Return = "int64" },
			want: map[string]string{"Get": ReasonSignatureChanged}},
	},
	"TestDiffSpecsRenamedMethod": {
		{name: "renamed method", frame: revision, edit: func(_, n *Spec) { n.Methods[getIdx].Name = "Peek" },
			want: map[string]string{"Peek": ReasonAdded}, removed: []string{"Get"}},
	},
	"TestDiffSpecsNewlyRedefined": {
		{name: "only newly redefined methods count", frame: revision,
			edit: func(o, n *Spec) { o.Redefined, n.Redefined = []string{"Get"}, []string{"Get", "Add"} },
			want: map[string]string{"Add": ReasonRedefined}},
		{name: "methods the parent redefined still count", frame: subclass,
			edit: func(o, n *Spec) { o.Redefined, n.Redefined = []string{"Get"}, []string{"Get", "Add"} },
			want: map[string]string{"Add": ReasonRedefined, "Get": ReasonRedefined}},
	},
	"TestDiffSpecsAttributeDomainChangeHitsUsers": {
		{name: "attribute domain changed", frame: revision, edit: func(_, n *Spec) { n.Attributes[0].Domain = RangeInt(0, 50) },
			want: map[string]string{"Add": ReasonUsesModifiedAttribute}},
		{name: "subclass redeclares an attribute", frame: subclass, edit: func(_, n *Spec) { n.Attributes[0].Domain = RangeInt(0, 50) },
			want: map[string]string{"Add": ReasonUsesModifiedAttribute}},
		{name: "inherited method uses a new attribute", frame: subclass,
			edit: func(_, n *Spec) {
				n.Attributes = append(n.Attributes, Attribute{Name: "extra", Domain: RangeInt(0, 5)})
				n.Methods[getIdx].Uses = []string{"extra"}
			},
			want: map[string]string{"Get": ReasonUsesModifiedAttribute}},
	},
	"TestDiffSpecsModifiedAttributesClause": {
		{name: "newly listed", frame: revision, edit: func(_, n *Spec) { n.ModifiedAttributes = []string{"count"} },
			want: map[string]string{"Add": ReasonUsesModifiedAttribute}},
		{name: "already listed", frame: revision,
			edit: func(o, n *Spec) { o.ModifiedAttributes, n.ModifiedAttributes = []string{"count"}, []string{"count"} }},
	},
	"TestDiffSpecsModelChange": {
		{name: "edge removed", frame: revision, edit: func(_, n *Spec) { n.Edges = n.Edges[:len(n.Edges)-1] },
			model: true},
		{name: "node methods reordered", frame: revision,
			edit:  func(_, n *Spec) { n.Nodes[1].Methods = append([]string{"m4"}, n.Nodes[1].Methods...) },
			model: true},
	},

	// Subclass frame: the §3.4.2 classification of Sub's methods.
	"TestClassify": {
		{name: "built subclass with new lifecycle and methods", frame: subclass,
			edit: func(_, n *Spec) {
				*n = *NewBuilder("Sub").
					Extends("Base").
					Attribute("count", RangeInt(0, 100)).
					Attribute("extra", RangeInt(0, 5)).
					Method("m1", "Sub", "", CatConstructor).
					Method("m2", "~Sub", "", CatDestructor).
					Method("m3", "Add", "", CatUpdate).
					Param("v", RangeInt(1, 10)).
					Uses("count").
					Method("m4", "Get", "int", CatAccess).
					Method("m5", "Reset", "", CatUpdate).
					Uses("extra").
					Redefines("Get").
					Node("n1", true, "m1").
					Node("n2", false, "m3").
					Node("n3", false, "m4").
					Node("n4", false, "m5").
					Node("n5", false, "m2").
					Edge("n1", "n2").
					Edge("n2", "n3").
					Edge("n3", "n4").
					Edge("n2", "n5").
					Edge("n4", "n5").
					MustBuild()
			},
			want: map[string]string{"Sub": ReasonAdded, "~Sub": ReasonAdded, "Reset": ReasonAdded,
				"Get": ReasonRedefined},
			removed: []string{"Base", "~Base"},
			model:   true},
	},
	"TestClassifyIdenticalCloneInheritsAll": {
		{name: "identical clone", frame: subclass},
	},
	"TestClassifyModifiedAttributes": {
		{name: "clause", frame: subclass, edit: func(_, n *Spec) { n.ModifiedAttributes = []string{"count"} },
			want: map[string]string{"Add": ReasonUsesModifiedAttribute}},
		{name: "parent lists it too", frame: subclass,
			edit: func(o, n *Spec) { o.ModifiedAttributes, n.ModifiedAttributes = []string{"count"}, []string{"count"} },
			want: map[string]string{"Add": ReasonUsesModifiedAttribute}},
	},
	"TestClassifySignatureChange": {
		{name: "widened parameter domain", frame: subclass, edit: redomainAdd(RangeInt(1, 1000)),
			want: map[string]string{"Add": ReasonDomainChanged}},
	},
	"TestClassifyAddedParameter": {
		{name: "added parameter", frame: subclass, edit: addParam(addIdx, Param{Name: "w", Domain: RangeInt(0, 1)}),
			want: map[string]string{"Add": ReasonSignatureChanged}},
	},
	"TestClassifyRemovedParameter": {
		{name: "removed parameter", frame: subclass, edit: func(_, n *Spec) { n.Methods[addIdx].Params = nil },
			want: map[string]string{"Add": ReasonSignatureChanged}},
	},
	"TestClassifyRedomainedParameter": {
		{name: "narrowed range", frame: subclass, edit: redomainAdd(RangeInt(1, 5)), want: map[string]string{"Add": ReasonDomainChanged}},
		{name: "widened range", frame: subclass, edit: redomainAdd(RangeInt(1, 10000)), want: map[string]string{"Add": ReasonDomainChanged}},
		{name: "shifted bounds", frame: subclass, edit: redomainAdd(RangeInt(2, 11)), want: map[string]string{"Add": ReasonDomainChanged}},
		{name: "kind change to string", frame: subclass, edit: redomainAdd(StringLen(1, 10)), want: map[string]string{"Add": ReasonDomainChanged}},
		{name: "kind change to bool", frame: subclass, edit: redomainAdd(BoolDom()), want: map[string]string{"Add": ReasonDomainChanged}},
		{name: "float promotion", frame: subclass, edit: redomainAdd(RangeFloat(1, 10)), want: map[string]string{"Add": ReasonDomainChanged}},
		{name: "enumerated candidates", frame: subclass, edit: redomainAdd(StringsOf("a", "b")), want: map[string]string{"Add": ReasonDomainChanged}},
		{name: "nullable pointer", frame: subclass, edit: redomainAdd(PointerTo("T", true)), want: map[string]string{"Add": ReasonDomainChanged}},
		{name: "non-nullable pointer", frame: subclass, edit: redomainAdd(PointerTo("T", false)), want: map[string]string{"Add": ReasonDomainChanged}},
	},
	"TestClassifyRenamedParameter": {
		{name: "renamed parameter", frame: subclass, edit: func(_, n *Spec) { n.Methods[addIdx].Params[0].Name = "value" },
			want: map[string]string{"Add": ReasonSignatureChanged}},
	},
	"TestClassifyConstructorChanges": {
		{name: "unchanged constructor inherits", frame: subclass},
		{name: "constructor gains parameter", frame: subclass, edit: addParam(0, Param{Name: "capacity", Domain: RangeInt(1, 8)}),
			want: map[string]string{"Base": ReasonSignatureChanged}},
		{name: "renamed constructor is new", frame: subclass, edit: func(_, n *Spec) { n.Methods[0].Name = "Sub" },
			want: map[string]string{"Sub": ReasonAdded}, removed: []string{"Base"}},
		{name: "constructor category change", frame: subclass, edit: func(_, n *Spec) { n.Methods[0].Category = CatUpdate },
			want: map[string]string{"Base": ReasonSignatureChanged}},
	},
	"TestClassifyRemovedMethodAbsent": {
		{name: "removed method", frame: subclass,
			edit:    func(_, n *Spec) { n.Methods = slices.Delete(n.Methods, getIdx, getIdx+1) },
			removed: []string{"Get"}},
	},
	"TestClassifyExplicitRedefinePrecedence": {
		{name: "explicit redefinition beside a re-domained parameter", frame: subclass,
			edit: func(_, n *Spec) {
				n.Redefined = []string{"Get"}
				setAddDomain(n, RangeInt(1, 99))
			},
			want: map[string]string{"Get": ReasonRedefined, "Add": ReasonDomainChanged}},
	},

	// Subclass frame over the depth-3 chain Base -> L1 -> L2 -> L3: each
	// link diffs on its own, so nothing accumulates down the chain and a
	// mid-chain change shows exactly at its link.
	"TestClassifyTransitiveChainAllInherited": {
		{name: "Base to L1", frame: subclass, edit: func(o, n *Spec) { link(o, n, "Base", "L1") }},
		{name: "L1 to L2", frame: subclass, edit: func(o, n *Spec) { link(o, n, "L1", "L2") }},
		{name: "L2 to L3", frame: subclass, edit: func(o, n *Spec) { link(o, n, "L2", "L3") }},
	},
	"TestClassifyTransitiveChainMidRedefinition": {
		{name: "Base to L1 inherits Add", frame: subclass, edit: func(o, n *Spec) { link(o, n, "Base", "L1") }},
		{name: "L1 to L2 redefines Add", frame: subclass,
			edit: func(o, n *Spec) { link(o, n, "L1", "L2"); n.Redefined = []string{"Add"} },
			want: map[string]string{"Add": ReasonRedefined}},
		{name: "L2 to L3 inherits L2's Add", frame: subclass,
			edit: func(o, n *Spec) { link(o, n, "L2", "L3"); o.Redefined = []string{"Add"} }},
	},
	"TestClassifyTransitiveChainDomainChange": {
		{name: "Base to L1 changes the domain", frame: subclass,
			edit: func(o, n *Spec) { link(o, n, "Base", "L1"); setAddDomain(n, RangeInt(1, 5)) },
			want: map[string]string{"Add": ReasonDomainChanged}},
		{name: "L1 to L2 inherits it", frame: subclass,
			edit: func(o, n *Spec) {
				link(o, n, "L1", "L2")
				setAddDomain(o, RangeInt(1, 5))
				setAddDomain(n, RangeInt(1, 5))
			}},
		{name: "L2 to L3 inherits it", frame: subclass,
			edit: func(o, n *Spec) {
				link(o, n, "L2", "L3")
				setAddDomain(o, RangeInt(1, 5))
				setAddDomain(n, RangeInt(1, 5))
			}},
		{name: "Base to L3 sees it", frame: subclass,
			edit: func(o, n *Spec) { link(o, n, "Base", "L3"); setAddDomain(n, RangeInt(1, 5)) },
			want: map[string]string{"Add": ReasonDomainChanged}},
	},
	"TestClassifyMultiLevelRedefinitionPrecedence": {
		{name: "Base to L1 redefines Get", frame: subclass,
			edit: func(o, n *Spec) { link(o, n, "Base", "L1"); n.Redefined = []string{"Get"} },
			want: map[string]string{"Get": ReasonRedefined}},
		{name: "L1 to L2 inherits Get and adds Reset", frame: subclass,
			edit: func(o, n *Spec) { link(o, n, "L1", "L2"); o.Redefined = []string{"Get"}; addReset(n) },
			want: map[string]string{"Reset": ReasonAdded}},
		{name: "L2 to L3 redefines Get again and inherits Reset", frame: subclass,
			edit: func(o, n *Spec) { link(o, n, "L2", "L3"); addReset(o); addReset(n); n.Redefined = []string{"Get"} },
			want: map[string]string{"Get": ReasonRedefined}},
	},
}

// runDiffRows runs the diffTable rows filed under the calling test. Beside
// the delta itself it checks the §3.4.2 reading of it: Split puts each
// method of the new spec in exactly one of inherited, redefined and new, as
// its reason says.
func runDiffRows(t *testing.T) {
	rows := diffTable[t.Name()]
	if len(rows) == 0 {
		t.Fatalf("diffTable has no rows for %s", t.Name())
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			old := baseBuilder().MustBuild()
			new := old.Clone()
			if r.frame == subclass {
				new.Class.Name, new.Class.Superclass = "Sub", "Base"
			}
			if r.edit != nil {
				r.edit(old, new)
			}
			d := DiffSpecs(old, new)

			got := map[string]string{}
			for _, m := range d.Impacted {
				got[m.Method] = m.Reason
			}
			if !maps.Equal(got, r.want) || len(got) != len(d.Impacted) {
				t.Errorf("Impacted = %+v, want %v", d.Impacted, r.want)
			}
			if !sort.SliceIsSorted(d.Impacted, func(i, j int) bool { return d.Impacted[i].Method < d.Impacted[j].Method }) {
				t.Errorf("Impacted not sorted by method: %+v", d.Impacted)
			}
			if !slices.Equal(d.Removed, r.removed) {
				t.Errorf("Removed = %v, want %v", d.Removed, r.removed)
			}
			if d.ModelChanged != r.model {
				t.Errorf("ModelChanged = %v, want %v", d.ModelChanged, r.model)
			}
			if d.Empty() != (len(r.want) == 0 && len(r.removed) == 0 && !r.model) {
				t.Errorf("Empty() = %v for %+v", d.Empty(), d)
			}

			var wantInh, wantRedef, wantNew []string
			for _, m := range new.Methods {
				switch reason, ok := r.want[m.Name]; {
				case !ok:
					wantInh = append(wantInh, m.Name)
				case reason == ReasonAdded:
					wantNew = append(wantNew, m.Name)
				default:
					wantRedef = append(wantRedef, m.Name)
				}
			}
			slices.Sort(wantInh)
			slices.Sort(wantRedef)
			slices.Sort(wantNew)
			inh, redef, added := d.Split(new)
			if !slices.Equal(inh, wantInh) || !slices.Equal(redef, wantRedef) || !slices.Equal(added, wantNew) {
				t.Errorf("Split = %v / %v / %v, want %v / %v / %v", inh, redef, added, wantInh, wantRedef, wantNew)
			}
		})
	}
}

func TestDiffSpecsIdenticalIsEmpty(t *testing.T)                { runDiffRows(t) }
func TestDiffSpecsDomainChange(t *testing.T)                    { runDiffRows(t) }
func TestDiffSpecsSignatureAndConstructorChanges(t *testing.T)  { runDiffRows(t) }
func TestDiffSpecsRenamedMethod(t *testing.T)                   { runDiffRows(t) }
func TestDiffSpecsNewlyRedefined(t *testing.T)                  { runDiffRows(t) }
func TestDiffSpecsAttributeDomainChangeHitsUsers(t *testing.T)  { runDiffRows(t) }
func TestDiffSpecsModifiedAttributesClause(t *testing.T)        { runDiffRows(t) }
func TestDiffSpecsModelChange(t *testing.T)                     { runDiffRows(t) }
func TestClassify(t *testing.T)                                 { runDiffRows(t) }
func TestClassifyIdenticalCloneInheritsAll(t *testing.T)        { runDiffRows(t) }
func TestClassifyModifiedAttributes(t *testing.T)               { runDiffRows(t) }
func TestClassifySignatureChange(t *testing.T)                  { runDiffRows(t) }
func TestClassifyAddedParameter(t *testing.T)                   { runDiffRows(t) }
func TestClassifyRemovedParameter(t *testing.T)                 { runDiffRows(t) }
func TestClassifyRedomainedParameter(t *testing.T)              { runDiffRows(t) }
func TestClassifyRenamedParameter(t *testing.T)                 { runDiffRows(t) }
func TestClassifyConstructorChanges(t *testing.T)               { runDiffRows(t) }
func TestClassifyRemovedMethodAbsent(t *testing.T)              { runDiffRows(t) }
func TestClassifyExplicitRedefinePrecedence(t *testing.T)       { runDiffRows(t) }
func TestClassifyTransitiveChainAllInherited(t *testing.T)      { runDiffRows(t) }
func TestClassifyTransitiveChainMidRedefinition(t *testing.T)   { runDiffRows(t) }
func TestClassifyTransitiveChainDomainChange(t *testing.T)      { runDiffRows(t) }
func TestClassifyMultiLevelRedefinitionPrecedence(t *testing.T) { runDiffRows(t) }
