// Inheritance: the hierarchical incremental test reuse of §3.4.2. The
// sortable list derives from the plain list; its suite is assembled by
// classifying every transaction — skip (inherited-only), reuse (touches
// redefined methods whose spec did not change), regenerate (touches new
// methods) — exactly the workflow behind the paper's "233 new test cases;
// the class reused 329 test cases from its superclass".
package main

import (
	"fmt"
	"os"

	"concat"
	"concat/internal/history"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "inheritance:", err)
		os.Exit(1)
	}
}

func run() error {
	parent := concat.Target("ObList")
	child := concat.Target("SortableObList")

	opts := concat.GenOptions{Seed: 42, ExpandAlternatives: true, MaxAlternatives: 4}

	// The parent's own testing: its suite becomes the reuse pool.
	parentSuite, err := concat.Generate(parent.Spec(), opts)
	if err != nil {
		return err
	}
	fmt.Printf("parent %s: %s\n", parent.Spec().Class.Name, parentSuite.Stats())

	// Derive the subclass suite; its plan carries the spec diff that
	// classifies every subclass method against the parent.
	d, err := concat.Derive(parent.Spec(), child.Spec(), parentSuite, opts)
	if err != nil {
		return err
	}
	inherited, redefined, added := d.Plan.Delta.Split(child.Spec())
	fmt.Printf("\nmethod classification of %s:\n", child.Spec().Class.Name)
	fmt.Printf("  inherited unchanged: %v\n", inherited)
	fmt.Printf("  redefined:           %v\n", redefined)
	fmt.Printf("  new:                 %v\n", added)
	skip, reuse, regen := d.Plan.Counts()
	fmt.Printf("\ntransaction decisions: %d skip, %d reuse, %d regenerate\n", skip, reuse, regen)
	fmt.Printf("derived suite: %d new cases, %d reused from the parent (%d parent cases skipped)\n",
		d.NumNew, d.NumReused, d.NumSkipped)

	// Show a decision of each class.
	shown := map[history.TransactionClass]bool{}
	for _, dec := range d.Plan.Decisions {
		if shown[dec.Class] {
			continue
		}
		shown[dec.Class] = true
		fmt.Printf("  e.g. %-10s %s — %s\n", dec.Class, dec.Transaction, dec.Reason)
	}

	// Run the derived suite against the subclass.
	report, err := child.RunSuite(d.Suite, concat.ExecOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n", report.Summary())
	if !report.AllPassed() {
		return fmt.Errorf("derived suite failed")
	}

	fmt.Println("\nNOTE: the skipped transactions are the paper's Table 3 warning —")
	fmt.Println("faults planted in inherited methods survive under this reduced suite.")
	fmt.Println("Run `go run ./cmd/experiments -table3 -baseline` to measure it.")
	return nil
}
