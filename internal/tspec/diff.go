package tspec

import "sort"

// DiffSpecs is the one spec classifier. It compares two specs method by
// method, keyed by name, and reports every method of the new spec whose
// test cases the change invalidates, with the reason. Its two consumers read
// the same delta:
//
//   - the incremental reuse of §3.4.2 (package history), after Harrold et
//     al., reads it as each subclass method's status: reason ReasonAdded is
//     new, any other reason is redefined, and a method the delta does not
//     list is inherited;
//   - the test-impact engine (package impact) keeps the cached verdicts of
//     every case that touches no impacted method.
//
// The frame comes from the specs alone. When new names old as its
// superclass, new is a subclass and its Redefined and ModifiedAttributes
// clauses describe the subclass itself, so every entry counts. Otherwise old
// and new are two revisions of one class, and only entries newly listed in
// those clauses count.
func DiffSpecs(old, new *Spec) SpecDelta {
	var d SpecDelta

	// In the subclass frame the old spec's own clauses are no baseline.
	var oldRedef, oldModAttr map[string]bool
	if new.Class.Superclass == "" || new.Class.Superclass != old.Class.Name {
		oldRedef, oldModAttr = nameSet(old.Redefined), nameSet(old.ModifiedAttributes)
	}
	// An attribute counts as modified when flagged, when its declared domain
	// changed, or when it is new — any of these can change invariant
	// checking and reporter behavior for the methods using it.
	modAttrs := map[string]bool{}
	for _, name := range new.ModifiedAttributes {
		if !oldModAttr[name] {
			modAttrs[name] = true
		}
	}
	for _, a := range new.Attributes {
		oldA, ok := old.AttributeByName(a.Name)
		if !ok || !sameDomainDecl(oldA.Domain, a.Domain) {
			modAttrs[a.Name] = true
		}
	}
	redefined := map[string]bool{}
	for _, name := range new.Redefined {
		if !oldRedef[name] {
			redefined[name] = true
		}
	}

	for _, m := range new.Methods {
		oldM, inOld := old.MethodByName(m.Name)
		switch {
		case !inOld:
			d.Impacted = append(d.Impacted, MethodDelta{m.Name, ReasonAdded})
		case !sameSignatureShape(oldM, m):
			d.Impacted = append(d.Impacted, MethodDelta{m.Name, ReasonSignatureChanged})
		case !sameSignature(oldM, m):
			d.Impacted = append(d.Impacted, MethodDelta{m.Name, ReasonDomainChanged})
		case redefined[m.Name]:
			d.Impacted = append(d.Impacted, MethodDelta{m.Name, ReasonRedefined})
		case usesModified(m, modAttrs):
			d.Impacted = append(d.Impacted, MethodDelta{m.Name, ReasonUsesModifiedAttribute})
		}
	}
	sort.Slice(d.Impacted, func(i, j int) bool { return d.Impacted[i].Method < d.Impacted[j].Method })

	for _, m := range old.Methods {
		if _, inNew := new.MethodByName(m.Name); !inNew {
			d.Removed = append(d.Removed, m.Name)
		}
	}
	sort.Strings(d.Removed)

	d.ModelChanged = modelChanged(old, new)
	return d
}

// Impact reasons, ordered by precedence (the first matching reason wins).
const (
	// ReasonAdded: the method does not exist in the old spec.
	ReasonAdded = "added"
	// ReasonSignatureChanged: name/return/category/parameter structure moved
	// — the non-domain part of the signature Harrold's model freezes.
	ReasonSignatureChanged = "signature-changed"
	// ReasonDomainChanged: same structure, but a parameter's declared value
	// domain moved, so generated inputs may differ.
	ReasonDomainChanged = "domain-changed"
	// ReasonRedefined: listed in the spec's Redefined clause — the
	// implementation was replaced without a spec change, which still
	// invalidates observed behavior.
	ReasonRedefined = "redefined"
	// ReasonUsesModifiedAttribute: the method Uses an attribute that is
	// listed in ModifiedAttributes, new, or whose declared domain changed
	// (§3.4.2: methods using a modified attribute are considered modified).
	ReasonUsesModifiedAttribute = "uses-modified-attribute"
)

// MethodDelta is one impacted method with the reason its verdicts are
// invalidated.
type MethodDelta struct {
	Method string `json:"method"`
	Reason string `json:"reason"`
}

// SpecDelta is the result of DiffSpecs.
type SpecDelta struct {
	// Impacted lists methods (present in the new spec) whose cached results
	// are invalid, sorted by method name.
	Impacted []MethodDelta `json:"impacted,omitempty"`
	// Removed lists methods present only in the old spec, sorted. Their
	// cases vanish from the generated suite on their own; the field exists
	// for reporting.
	Removed []string `json:"removed,omitempty"`
	// ModelChanged reports that the TFM (nodes or edges) differs, so the
	// transaction enumeration itself may have moved. The impact engine does
	// not need a per-edge attribution: regenerated transactions reveal
	// themselves by case-content comparison.
	ModelChanged bool `json:"modelChanged,omitempty"`
}

// Empty reports a no-op edit: nothing impacted, nothing removed, same model.
func (d SpecDelta) Empty() bool {
	return len(d.Impacted) == 0 && len(d.Removed) == 0 && !d.ModelChanged
}

// ImpactedSet returns the impacted method names as a set.
func (d SpecDelta) ImpactedSet() map[string]bool {
	out := make(map[string]bool, len(d.Impacted))
	for _, m := range d.Impacted {
		out[m.Method] = true
	}
	return out
}

// ImpactedReason returns the recorded reason for an impacted method, or "".
func (d SpecDelta) ImpactedReason(method string) string {
	for _, m := range d.Impacted {
		if m.Method == method {
			return m.Reason
		}
	}
	return ""
}

// Split sorts the method names of new, the spec the delta was computed
// for, into the three §3.4.2 statuses: reason ReasonAdded is new, any other
// reason redefined, and a method the delta does not list inherited. Each
// list is sorted.
func (d SpecDelta) Split(new *Spec) (inherited, redefined, added []string) {
	for _, m := range new.Methods {
		switch d.ImpactedReason(m.Name) {
		case "":
			inherited = append(inherited, m.Name)
		case ReasonAdded:
			added = append(added, m.Name)
		default:
			redefined = append(redefined, m.Name)
		}
	}
	sort.Strings(inherited)
	sort.Strings(redefined)
	sort.Strings(added)
	return inherited, redefined, added
}

func nameSet(names []string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, name := range names {
		out[name] = true
	}
	return out
}

func usesModified(m Method, modAttrs map[string]bool) bool {
	for _, u := range m.Uses {
		if modAttrs[u] {
			return true
		}
	}
	return false
}

// sameSignatureShape checks the non-domain part of sameSignature: name,
// return, category and the ordered parameter names. Splitting it out lets
// DiffSpecs distinguish a structural signature change from a pure domain
// move.
func sameSignatureShape(a, b Method) bool {
	if a.Name != b.Name || a.Return != b.Return || a.Category != b.Category {
		return false
	}
	if len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i].Name != b.Params[i].Name {
			return false
		}
	}
	return true
}

// sameSignature reports whether two method declarations agree on the parts
// Harrold's model freezes: the shape sameSignatureShape checks plus every
// parameter's declared domain.
func sameSignature(a, b Method) bool {
	if !sameSignatureShape(a, b) {
		return false
	}
	for i := range a.Params {
		if !sameDomainDecl(a.Params[i].Domain, b.Params[i].Domain) {
			return false
		}
	}
	return true
}

func sameDomainDecl(a, b DomainDecl) bool {
	if a.Kind != b.Kind || a.Float != b.Float || a.Lo != b.Lo || a.Hi != b.Hi {
		return false
	}
	if a.MinLen != b.MinLen || a.MaxLen != b.MaxLen {
		return false
	}
	if a.TypeName != b.TypeName || a.Nullable != b.Nullable {
		return false
	}
	if len(a.Members) != len(b.Members) || len(a.Candidates) != len(b.Candidates) {
		return false
	}
	for i := range a.Members {
		if !a.Members[i].Equal(b.Members[i]) {
			return false
		}
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			return false
		}
	}
	return true
}

func modelChanged(old, new *Spec) bool {
	if len(old.Nodes) != len(new.Nodes) || len(old.Edges) != len(new.Edges) {
		return true
	}
	for i, n := range new.Nodes {
		o := old.Nodes[i]
		if o.ID != n.ID || o.Start != n.Start || len(o.Methods) != len(n.Methods) {
			return true
		}
		for j := range n.Methods {
			if o.Methods[j] != n.Methods[j] {
				return true
			}
		}
	}
	for i, e := range new.Edges {
		if old.Edges[i] != e {
			return true
		}
	}
	return false
}
