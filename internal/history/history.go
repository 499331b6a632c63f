// Package history implements the test history and the hierarchical
// incremental test-reuse technique of §3.4.2. The paper adapts Harrold et
// al.'s incremental class testing with one modification: test cases are
// associated with transactions rather than individual class features. For a
// subclass,
//
//   - a transaction composed only of methods inherited without modification
//     (constructors and destructors excluded from the check) is NOT included
//     in the subclass test set — its parent test cases are assumed valid;
//   - a transaction containing redefined methods whose specification did not
//     change reuses the parent's test cases;
//   - a transaction containing new methods gets freshly generated cases.
//
// Experiment 2 (Table 3) measures the cost of the first rule: faults planted
// in the base class survive under the reduced subclass suite.
package history

import (
	"encoding/json"
	"fmt"
	"io"

	"concat/internal/driver"
	"concat/internal/tspec"
)

// Entry associates one test case with the transaction it exercises — the
// paper's "testing history" record, keyed by transaction.
type Entry struct {
	CaseID      string   `json:"caseId"`
	Transaction string   `json:"transaction"`
	Methods     []string `json:"methods"` // method names invoked, in order
	// Origin records how the case entered the suite: "new" (generated for
	// this class) or "reused" (inherited from the parent's history).
	Origin string `json:"origin"`
}

// History is a component's persistent testing history.
type History struct {
	Component  string  `json:"component"`
	Superclass string  `json:"superclass,omitempty"`
	Seed       int64   `json:"seed"`
	Entries    []Entry `json:"entries"`
}

// Build derives a history from a generated suite; every case is "new".
func Build(s *driver.Suite) *History {
	h := &History{Component: s.Component, Seed: s.Seed}
	for _, tc := range s.Cases {
		h.Entries = append(h.Entries, Entry{
			CaseID:      tc.ID,
			Transaction: tc.Transaction,
			Methods:     tc.Methods(),
			Origin:      "new",
		})
	}
	return h
}

// ByTransaction groups entry indices by transaction key.
func (h *History) ByTransaction() map[string][]Entry {
	out := make(map[string][]Entry)
	for _, e := range h.Entries {
		out[e.Transaction] = append(out[e.Transaction], e)
	}
	return out
}

// Save writes the history as JSON.
func (h *History) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("history: encoding: %w", err)
	}
	return nil
}

// Load reads a history saved with Save.
func Load(r io.Reader) (*History, error) {
	var h History
	if err := json.NewDecoder(r).Decode(&h); err != nil {
		return nil, fmt.Errorf("history: decoding: %w", err)
	}
	return &h, nil
}

// TransactionClass is the incremental-reuse decision for one transaction.
type TransactionClass int

// Decisions.
const (
	// ClassSkip: inherited-unchanged methods only — excluded from the
	// subclass suite (the paper's cost-saving, and its Table 3 warning).
	ClassSkip TransactionClass = iota + 1
	// ClassReuse: contains redefined methods but no new ones, and the
	// parent history holds cases for the same transaction — reuse them.
	ClassReuse
	// ClassRegenerate: contains new methods (or no parent cases exist) —
	// generate fresh cases.
	ClassRegenerate
)

// String names the class.
func (c TransactionClass) String() string {
	switch c {
	case ClassSkip:
		return "skip"
	case ClassReuse:
		return "reuse"
	case ClassRegenerate:
		return "regenerate"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Decision records the classification of one subclass transaction.
type Decision struct {
	Transaction string
	Class       TransactionClass
	Reason      string
}

// Plan is the full incremental-reuse plan for a subclass.
type Plan struct {
	Component  string
	Superclass string
	Decisions  []Decision
	// Delta is the subclass-frame spec diff that justified the plan: an
	// impacted method is new (reason added) or redefined, any other method
	// inherited.
	Delta tspec.SpecDelta
}

// Counts returns the number of transactions per decision class.
func (p *Plan) Counts() (skip, reuse, regen int) {
	for _, d := range p.Decisions {
		switch d.Class {
		case ClassSkip:
			skip++
		case ClassReuse:
			reuse++
		case ClassRegenerate:
			regen++
		}
	}
	return skip, reuse, regen
}

// DerivedSuite is the subclass suite produced by the incremental technique,
// with provenance counts (the paper reports "233 new test cases; the class
// reused 329 test cases from its superclass").
type DerivedSuite struct {
	Suite      *driver.Suite
	History    *History
	Plan       *Plan
	NumNew     int
	NumReused  int
	NumSkipped int // test cases of the parent not carried into the suite
}

// Derive runs the incremental technique: diff the subclass spec against
// the parent spec, classify every subclass transaction, and assemble the
// subclass suite from reused parent cases plus freshly generated ones.
//
// parentSuite and parentHist describe the parent's testing; opts drive the
// generation of the subclass's own cases (same knobs as driver.Generate).
func Derive(parentSpec, childSpec *tspec.Spec, parentSuite *driver.Suite, opts driver.Options) (*DerivedSuite, error) {
	if parentSuite == nil {
		return nil, fmt.Errorf("history: derive requires the parent suite")
	}
	if childSpec.Class.Superclass != parentSpec.Class.Name {
		return nil, fmt.Errorf("history: %q does not extend %q (superclass is %q)",
			childSpec.Class.Name, parentSpec.Class.Name, childSpec.Class.Superclass)
	}
	delta := tspec.DiffSpecs(parentSpec, childSpec)

	// Generate the subclass's full suite once; it supplies the cases for
	// every transaction classified ClassRegenerate.
	fullChild, err := driver.Generate(childSpec, opts)
	if err != nil {
		return nil, fmt.Errorf("history: deriving %q: %w", childSpec.Class.Name, err)
	}

	// Group generated child cases and parent cases by transaction.
	childByTr := map[string][]driver.TestCase{}
	var childTrOrder []string
	for _, tc := range fullChild.Cases {
		if _, seen := childByTr[tc.Transaction]; !seen {
			childTrOrder = append(childTrOrder, tc.Transaction)
		}
		childByTr[tc.Transaction] = append(childByTr[tc.Transaction], tc)
	}
	parentByTr := map[string][]driver.TestCase{}
	for _, tc := range parentSuite.Cases {
		parentByTr[tc.Transaction] = append(parentByTr[tc.Transaction], tc)
	}

	plan := &Plan{
		Component:  childSpec.Class.Name,
		Superclass: parentSpec.Class.Name,
		Delta:      delta,
	}
	out := &DerivedSuite{
		Suite: &driver.Suite{
			Component: childSpec.Class.Name,
			Seed:      opts.Seed,
			Criterion: fullChild.Criterion,
		},
		Plan: plan,
	}

	nextID := 0
	var origins []string
	appendCase := func(tc driver.TestCase, origin string) {
		tc.ID = fmt.Sprintf("TC%d", nextID)
		nextID++
		out.Suite.Cases = append(out.Suite.Cases, tc)
		origins = append(origins, origin)
		if origin == "new" {
			out.NumNew++
		} else {
			out.NumReused++
		}
	}

	for _, tr := range childTrOrder {
		cases := childByTr[tr]
		cls, reason := classifyTransaction(childSpec, delta, cases)
		switch cls {
		case ClassSkip:
			out.NumSkipped += len(cases)
		case ClassReuse:
			parentCases, ok := parentByTr[tr]
			if !ok {
				// No parent cases for this transaction: fall back to the
				// freshly generated ones.
				cls = ClassRegenerate
				reason += "; no parent cases for transaction, regenerated"
				for _, tc := range cases {
					appendCase(tc, "new")
				}
				break
			}
			for _, tc := range parentCases {
				remapped, err := remapLifecycle(parentSpec, childSpec, tc)
				if err != nil {
					return nil, fmt.Errorf("history: reusing case %s: %w", tc.ID, err)
				}
				appendCase(remapped, "reused")
			}
		case ClassRegenerate:
			for _, tc := range cases {
				appendCase(tc, "new")
			}
		}
		plan.Decisions = append(plan.Decisions, Decision{Transaction: tr, Class: cls, Reason: reason})
	}

	out.History = buildDerivedHistory(out, origins)
	return out, nil
}

// classifyTransaction applies the paper's rule to one transaction, using the
// methods its generated cases actually invoke. Constructors and destructors
// are excluded from the modification check. A method's status comes from
// the delta: reason added is new, any other reason redefined, and absence
// inherited.
func classifyTransaction(spec *tspec.Spec, delta tspec.SpecDelta, cases []driver.TestCase) (TransactionClass, string) {
	hasNew, hasRedefined := false, false
	var newName, redefName string
	for _, tc := range cases {
		for _, call := range tc.Calls {
			m, ok := spec.MethodByID(call.MethodID)
			if !ok {
				m, ok = spec.MethodByName(call.Method)
			}
			if !ok {
				continue
			}
			if m.Category == tspec.CatConstructor || m.Category == tspec.CatDestructor {
				continue
			}
			switch reason := delta.ImpactedReason(m.Name); {
			case reason == tspec.ReasonAdded:
				hasNew, newName = true, m.Name
			case reason != "":
				hasRedefined, redefName = true, m.Name
			}
		}
	}
	switch {
	case hasNew:
		return ClassRegenerate, fmt.Sprintf("contains new method %s", newName)
	case hasRedefined:
		return ClassReuse, fmt.Sprintf("contains redefined method %s (spec unchanged)", redefName)
	default:
		return ClassSkip, "all methods inherited without modification"
	}
}

// remapLifecycle rewrites a reused parent test case so its constructor and
// destructor calls use the subclass's corresponding methods. The paper's
// rule — "except for the constructor and destructor methods, which for this
// reason are not part of a test case" — exists precisely because a subclass
// has its own birth and death methods; every other call is reused verbatim.
// The child method is matched by category and parameter signature.
func remapLifecycle(parentSpec, childSpec *tspec.Spec, tc driver.TestCase) (driver.TestCase, error) {
	out := tc
	out.Calls = append([]driver.Call(nil), tc.Calls...)
	for i, call := range out.Calls {
		pm, ok := parentSpec.MethodByID(call.MethodID)
		if !ok {
			pm, ok = parentSpec.MethodByName(call.Method)
		}
		if !ok {
			continue
		}
		if pm.Category != tspec.CatConstructor && pm.Category != tspec.CatDestructor {
			continue
		}
		cm, ok := findLifecycleMatch(childSpec, pm)
		if !ok {
			return driver.TestCase{}, fmt.Errorf(
				"no %s in %q matching the signature of parent %s", pm.Category, childSpec.Class.Name, pm.Name)
		}
		out.Calls[i].MethodID = cm.ID
		out.Calls[i].Method = cm.Name
	}
	return out, nil
}

// findLifecycleMatch locates the child constructor/destructor with the same
// category and parameter list shape (count and domain kinds) as the parent's.
func findLifecycleMatch(childSpec *tspec.Spec, pm tspec.Method) (tspec.Method, bool) {
	for _, cm := range childSpec.Methods {
		if cm.Category != pm.Category || len(cm.Params) != len(pm.Params) {
			continue
		}
		match := true
		for i := range cm.Params {
			if cm.Params[i].Domain.Kind != pm.Params[i].Domain.Kind {
				match = false
				break
			}
		}
		if match {
			return cm, true
		}
	}
	return tspec.Method{}, false
}

func buildDerivedHistory(d *DerivedSuite, origins []string) *History {
	h := &History{
		Component:  d.Suite.Component,
		Superclass: d.Plan.Superclass,
		Seed:       d.Suite.Seed,
	}
	for i, tc := range d.Suite.Cases {
		h.Entries = append(h.Entries, Entry{
			CaseID:      tc.ID,
			Transaction: tc.Transaction,
			Methods:     tc.Methods(),
			Origin:      origins[i],
		})
	}
	return h
}

// AdaptSuite instantiates a suite generated from an abstract (or otherwise
// shared) specification against a concrete component — the paper's §3.2
// advantage (iii): "test selection is, to a certain extent, implementation
// language independent, which allows tests to be generated for abstract
// classes, for example, to be later incorporated to a subclass test suite."
// Lifecycle calls are remapped onto the concrete class's constructors and
// destructors (matched by category and parameter shape, exactly like
// subclass reuse); every other call must name a method the concrete spec
// declares.
func AdaptSuite(abstractSpec, concreteSpec *tspec.Spec, s *driver.Suite) (*driver.Suite, error) {
	if s.Component != abstractSpec.Class.Name {
		return nil, fmt.Errorf("history: suite is for %q, abstract spec is %q",
			s.Component, abstractSpec.Class.Name)
	}
	out := &driver.Suite{
		Component: concreteSpec.Class.Name,
		Seed:      s.Seed,
		Criterion: s.Criterion,
	}
	for _, tc := range s.Cases {
		adapted, err := remapLifecycle(abstractSpec, concreteSpec, tc)
		if err != nil {
			return nil, fmt.Errorf("history: adapting case %s: %w", tc.ID, err)
		}
		for _, call := range adapted.Calls {
			m, ok := concreteSpec.MethodByName(call.Method)
			if !ok {
				return nil, fmt.Errorf("history: adapting case %s: %q does not implement %q",
					tc.ID, concreteSpec.Class.Name, call.Method)
			}
			_ = m
		}
		out.Cases = append(out.Cases, adapted)
	}
	return out, nil
}
