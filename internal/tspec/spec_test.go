package tspec

import (
	"strings"
	"testing"

	"concat/internal/domain"
)

func baseBuilder() *Builder {
	return NewBuilder("Base").
		Attribute("count", RangeInt(0, 100)).
		Method("m1", "Base", "", CatConstructor).
		Method("m2", "~Base", "", CatDestructor).
		Method("m3", "Add", "", CatUpdate).
		Param("v", RangeInt(1, 10)).
		Uses("count").
		Method("m4", "Get", "int", CatAccess).
		Node("n1", true, "m1").
		Node("n2", false, "m3").
		Node("n3", false, "m4").
		Node("n4", false, "m2").
		Edge("n1", "n2").
		Edge("n2", "n3").
		Edge("n2", "n4").
		Edge("n3", "n4")
}

func TestBuilderBuildsValidSpec(t *testing.T) {
	s, err := baseBuilder().Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if s.Class.Name != "Base" {
		t.Errorf("name = %q", s.Class.Name)
	}
	m3, ok := s.MethodByID("m3")
	if !ok || m3.DeclaredParams != 1 {
		t.Errorf("m3 = %+v", m3)
	}
	n2, ok := s.NodeByID("n2")
	if !ok || n2.OutDeg != 2 {
		t.Errorf("n2 = %+v", n2)
	}
}

func TestBuilderErrorsAreSticky(t *testing.T) {
	_, err := NewBuilder("X").Param("p", RangeInt(0, 1)).Method("m1", "X", "", CatConstructor).Build()
	if err == nil || !strings.Contains(err.Error(), "before any Method") {
		t.Errorf("err = %v", err)
	}
	_, err = NewBuilder("X").Uses("a").Build()
	if err == nil || !strings.Contains(err.Error(), "before any Method") {
		t.Errorf("err = %v", err)
	}
}

func TestMustBuildPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on invalid spec")
		}
	}()
	NewBuilder("").MustBuild()
}

func TestValidateCatchesProblems(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"empty class name", func(s *Spec) { s.Class.Name = "" }, "class name is empty"},
		{"self superclass", func(s *Spec) { s.Class.Superclass = s.Class.Name }, "itself as superclass"},
		{"dup attribute", func(s *Spec) { s.Attributes = append(s.Attributes, s.Attributes[0]) }, "duplicate attribute"},
		{"empty attr name", func(s *Spec) { s.Attributes[0].Name = "" }, "attribute with empty name"},
		{"bad attr domain", func(s *Spec) { s.Attributes[0].Domain.Hi = -1 }, "attribute"},
		{"dup method id", func(s *Spec) { s.Methods = append(s.Methods, s.Methods[0]) }, "duplicate method identifier"},
		{"empty method id", func(s *Spec) { s.Methods[0].ID = "" }, "empty identifier"},
		{"empty method name", func(s *Spec) { s.Methods[0].Name = "" }, "empty name"},
		{"bad category", func(s *Spec) { s.Methods[0].Category = 0 }, "invalid category"},
		{"param count mismatch", func(s *Spec) { s.Methods[2].DeclaredParams = 5 }, "declares 5 parameters"},
		{"dup param", func(s *Spec) { s.Methods[2].Params = append(s.Methods[2].Params, s.Methods[2].Params[0]) }, "duplicate parameter"},
		{"bad param domain", func(s *Spec) { s.Methods[2].Params[0].Domain.Hi = -100 }, "parameter"},
		{"unknown uses", func(s *Spec) { s.Methods[2].Uses = []string{"ghost"} }, "undeclared attribute"},
		{"no constructor", func(s *Spec) { s.Methods[0].Category = CatOther; s.Nodes[0].Start = false }, "no constructor"},
		{"no destructor", func(s *Spec) { s.Methods[1].Category = CatOther }, "no destructor"},
		{"dup node", func(s *Spec) { s.Nodes = append(s.Nodes, s.Nodes[0]) }, "duplicate node"},
		{"empty node id", func(s *Spec) { s.Nodes[0].ID = "" }, "node with empty identifier"},
		{"node no methods", func(s *Spec) { s.Nodes[1].Methods = nil }, "lists no methods"},
		{"node unknown method", func(s *Spec) { s.Nodes[1].Methods = []string{"m99"} }, "undeclared method"},
		{"start node non-ctor", func(s *Spec) { s.Nodes[0].Methods = []string{"m3"} }, "non-constructor"},
		{"edge unknown from", func(s *Spec) { s.Edges = append(s.Edges, EdgeDecl{From: "zz", To: "n2"}); s.Nodes[1].OutDeg++ }, "undeclared node"},
		{"outdeg mismatch", func(s *Spec) { s.Nodes[1].OutDeg = 9 }, "declares 9 outgoing"},
		{"redefined without super", func(s *Spec) { s.Redefined = []string{"Add"} }, "without a superclass"},
		{"modattrs without super", func(s *Spec) { s.ModifiedAttributes = []string{"count"} }, "without a superclass"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := baseBuilder().MustBuild().Clone()
			tt.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate passed, want error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestValidateInheritanceAnnotations(t *testing.T) {
	s := baseBuilder().MustBuild().Clone()
	s.Class.Superclass = "Parent"
	s.Redefined = []string{"Ghost"}
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("err = %v", err)
	}
	s.Redefined = nil
	s.ModifiedAttributes = []string{"ghost"}
	err = s.Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown attribute") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateGraphStructure(t *testing.T) {
	// A spec whose clause-level data is fine but whose graph is broken
	// (final node unreachable) must fail via the TFM validator.
	s := baseBuilder().MustBuild().Clone()
	s.Edges = []EdgeDecl{{From: "n1", To: "n2"}, {From: "n2", To: "n3"}, {From: "n3", To: "n4"}}
	for i := range s.Nodes {
		s.Nodes[i].OutDeg = 1
	}
	s.Nodes[3].OutDeg = 0
	if err := s.Validate(); err != nil {
		t.Fatalf("linear rewiring should validate: %v", err)
	}
	// Now orphan the destructor node.
	s.Edges = s.Edges[:2]
	s.Nodes[2].OutDeg = 0
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "cannot reach any final") {
		t.Errorf("err = %v", err)
	}
}

func TestTFMLowering(t *testing.T) {
	s := baseBuilder().MustBuild()
	g, err := s.TFM()
	if err != nil {
		t.Fatalf("TFM: %v", err)
	}
	if g.Name() != "Base" {
		t.Errorf("graph name = %q", g.Name())
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Errorf("graph = %v", g.Stats())
	}
	n1, _ := g.Node("n1")
	if !n1.Start {
		t.Error("n1 should be start")
	}
	n4, _ := g.Node("n4")
	if !n4.Final {
		t.Error("n4 (destructor node) should be final")
	}
	n2, _ := g.Node("n2")
	if n2.Final {
		t.Error("n2 should not be final")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("lowered graph invalid: %v", err)
	}
}

func TestIsFinalNode(t *testing.T) {
	s := baseBuilder().MustBuild()
	n4, _ := s.NodeByID("n4")
	if !s.IsFinalNode(n4) {
		t.Error("n4 should be final")
	}
	n2, _ := s.NodeByID("n2")
	if s.IsFinalNode(n2) {
		t.Error("n2 should not be final")
	}
	if s.IsFinalNode(NodeDecl{ID: "x"}) {
		t.Error("empty node should not be final")
	}
	if s.IsFinalNode(NodeDecl{ID: "x", Methods: []string{"ghost"}}) {
		t.Error("node with unknown method should not be final")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := baseBuilder().MustBuild()
	cp := s.Clone()
	cp.Attributes[0].Name = "hacked"
	cp.Methods[2].Params[0].Name = "hacked"
	cp.Nodes[0].Methods[0] = "hacked"
	cp.Edges[0].From = "hacked"
	if s.Attributes[0].Name == "hacked" || s.Methods[2].Params[0].Name == "hacked" ||
		s.Nodes[0].Methods[0] == "hacked" || s.Edges[0].From == "hacked" {
		t.Error("Clone shares state with the original")
	}
}

func TestAccessors(t *testing.T) {
	s := baseBuilder().MustBuild()
	if _, ok := s.MethodByID("zz"); ok {
		t.Error("MethodByID(zz) should miss")
	}
	if _, ok := s.MethodByName("zz"); ok {
		t.Error("MethodByName(zz) should miss")
	}
	if _, ok := s.AttributeByName("zz"); ok {
		t.Error("AttributeByName(zz) should miss")
	}
	if _, ok := s.NodeByID("zz"); ok {
		t.Error("NodeByID(zz) should miss")
	}
	if a, ok := s.AttributeByName("count"); !ok || a.Name != "count" {
		t.Errorf("AttributeByName(count) = %+v, %v", a, ok)
	}
	if m, ok := s.MethodByName("Add"); !ok || m.ID != "m3" {
		t.Errorf("MethodByName(Add) = %+v, %v", m, ok)
	}
}

func TestCategoryParseAndString(t *testing.T) {
	for _, c := range []MethodCategory{CatConstructor, CatDestructor, CatUpdate, CatAccess, CatOther} {
		got, err := ParseCategory(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCategory(%s) = %v, %v", c, got, err)
		}
	}
	if _, err := ParseCategory("nope"); err == nil {
		t.Error("unknown category should fail")
	}
	if MethodCategory(0).String() != "category(0)" {
		t.Errorf("zero category string = %q", MethodCategory(0).String())
	}
}

func TestDomainKindParseAndString(t *testing.T) {
	for _, k := range []DomainKind{DomRange, DomSet, DomString, DomObject, DomPointer, DomBool} {
		got, err := ParseDomainKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseDomainKind(%s) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseDomainKind("nope"); err == nil {
		t.Error("unknown domain kind should fail")
	}
	if DomainKind(0).String() != "domainKind(0)" {
		t.Errorf("zero kind string = %q", DomainKind(0).String())
	}
}

func TestDomainDeclBuild(t *testing.T) {
	cases := []struct {
		name string
		decl DomainDecl
		kind domain.Kind
	}{
		{"int range", RangeInt(1, 5), domain.KindInt},
		{"float range", RangeFloat(0.5, 1.5), domain.KindFloat},
		{"set", SetOf(domain.Int(1), domain.Int(2)), domain.KindInt},
		{"string len", StringLen(1, 5), domain.KindString},
		{"string cands", StringsOf("a", "b"), domain.KindString},
		{"object", ObjectOf("T"), domain.KindObject},
		{"pointer", PointerTo("T", true), domain.KindPointer},
		{"bool", BoolDom(), domain.KindBool},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := c.decl.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if d.Kind() != c.kind {
				t.Errorf("kind = %s, want %s", d.Kind(), c.kind)
			}
		})
	}
	if _, err := (DomainDecl{}).Build(); err == nil {
		t.Error("zero DomainDecl should not build")
	}
	if _, err := (DomainDecl{Kind: DomRange, Lo: 5, Hi: 1}).Build(); err == nil {
		t.Error("inverted range should not build")
	}
}

func TestSameSignatureVariants(t *testing.T) {
	base := Method{Name: "f", Return: "int", Category: CatAccess,
		Params: []Param{{Name: "a", Domain: RangeInt(0, 5)}}}
	same := base
	same.Params = []Param{{Name: "a", Domain: RangeInt(0, 5)}}
	if !sameSignature(base, same) {
		t.Error("identical methods should match")
	}
	cases := []Method{
		{Name: "g", Return: "int", Category: CatAccess, Params: base.Params},
		{Name: "f", Return: "", Category: CatAccess, Params: base.Params},
		{Name: "f", Return: "int", Category: CatUpdate, Params: base.Params},
		{Name: "f", Return: "int", Category: CatAccess},
		{Name: "f", Return: "int", Category: CatAccess, Params: []Param{{Name: "b", Domain: RangeInt(0, 5)}}},
		{Name: "f", Return: "int", Category: CatAccess, Params: []Param{{Name: "a", Domain: RangeInt(0, 6)}}},
	}
	for i, c := range cases {
		if sameSignature(base, c) {
			t.Errorf("case %d should differ", i)
		}
	}
}

func TestSameDomainDeclVariants(t *testing.T) {
	a := SetOf(domain.Int(1), domain.Int(2))
	b := SetOf(domain.Int(1), domain.Int(3))
	if sameDomainDecl(a, b) {
		t.Error("different set members should differ")
	}
	c := StringsOf("x")
	d := StringsOf("y")
	if sameDomainDecl(c, d) {
		t.Error("different candidates should differ")
	}
	if !sameDomainDecl(a, SetOf(domain.Int(1), domain.Int(2))) {
		t.Error("equal sets should match")
	}
}
