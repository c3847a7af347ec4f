package rules

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func mustLoad(t *testing.T, src string) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.LoadRules(src); err != nil {
		t.Fatal(err)
	}
	return e
}

func mustRun(t *testing.T, e *Engine) int {
	t.Helper()
	n, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSexprReader(t *testing.T) {
	forms, err := readAll(`
; comment
(defrule r (a ?x) => (assert (b ?x)))
(deffacts init (a 1) (a "two") (neg -3.5))
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(forms) != 2 {
		t.Fatalf("got %d forms", len(forms))
	}
	if forms[0].head() != "defrule" || forms[1].head() != "deffacts" {
		t.Errorf("heads: %q %q", forms[0].head(), forms[1].head())
	}
	if s := forms[1].String(); s != `(deffacts init (a 1) (a "two") (neg -3.5))` {
		t.Errorf("round trip = %s", s)
	}
}

// TestSexprNumberTokens pins the reader's number/symbol split to
// strconv.ParseFloat: a token is a number exactly when ParseFloat
// accepts it, including the inf/nan spellings and hex floats.
func TestSexprNumberTokens(t *testing.T) {
	for _, tok := range []string{
		"1", "-1", "+.5", ".5", "1e3", "1E-3", "0x1p-2", "1_0", "0x_1p0",
		"inf", "-Inf", "+infinity", "Infinity", "NaN", "nan", "-nan", "+NaN",
		"-", "+", ".", "-.", "x", "-x", "?x", "i", "n", "info", "nano", "_1", "e5", "--1",
	} {
		forms, err := readAll(tok)
		if err != nil || len(forms) != 1 || forms[0].atom == nil {
			t.Fatalf("readAll(%q) = %v, %v", tok, forms, err)
		}
		f, perr := strconv.ParseFloat(tok, 64)
		got := *forms[0].atom
		if perr == nil {
			want := Num(f)
			if got.Kind != want.Kind || got.String() != want.String() {
				t.Errorf("%q read as %v, want number %v", tok, got, want)
			}
		} else if got.Kind != SymbolKind || got.Sym != tok {
			t.Errorf("%q read as %v, want symbol", tok, got)
		}
	}
}

func TestSexprErrors(t *testing.T) {
	for _, bad := range []string{"(a (b)", ")", `(s "unterminated)`} {
		if _, err := readAll(bad); err == nil {
			t.Errorf("readAll(%q) succeeded", bad)
		}
	}
}

func TestSimpleForwardChain(t *testing.T) {
	e := mustLoad(t, `
(defrule promote
  (animal ?x)
  =>
  (assert (mortal ?x)))
`)
	e.AssertF("animal", "socrates")
	e.AssertF("animal", "plato")
	n := mustRun(t, e)
	if n != 2 {
		t.Errorf("fired %d rules, want 2", n)
	}
	if len(e.FactsMatching(Sym("mortal"), Sym("?"))) != 2 {
		t.Error("mortal facts missing")
	}
}

func TestJoinAcrossPatterns(t *testing.T) {
	e := mustLoad(t, `
(defrule grandparent
  (parent ?a ?b)
  (parent ?b ?c)
  =>
  (assert (grandparent ?a ?c)))
`)
	e.AssertF("parent", "ann", "bob")
	e.AssertF("parent", "bob", "cid")
	e.AssertF("parent", "bob", "dee")
	mustRun(t, e)
	gs := e.FactsMatching(Sym("grandparent"), Sym("ann"), Sym("?"))
	if len(gs) != 2 {
		t.Fatalf("got %d grandparent facts: %v", len(gs), gs)
	}
}

func TestTestConditionFiltersBindings(t *testing.T) {
	e := mustLoad(t, `
(defrule big
  (reading ?p ?v)
  (test (> ?v 10))
  =>
  (assert (big ?p)))
`)
	e.AssertF("reading", "a", 5)
	e.AssertF("reading", "b", 15)
	mustRun(t, e)
	if len(e.FactsMatching(Sym("big"), Sym("a"))) != 0 {
		t.Error("rule fired for value below threshold")
	}
	if len(e.FactsMatching(Sym("big"), Sym("b"))) != 1 {
		t.Error("rule did not fire for value above threshold")
	}
}

func TestNegatedPattern(t *testing.T) {
	e := mustLoad(t, `
(defrule orphan-violation
  (violation ?p)
  (not (diagnosis ?p))
  =>
  (assert (needs-diagnosis ?p)))
`)
	e.AssertF("violation", "p1")
	e.AssertF("violation", "p2")
	e.AssertF("diagnosis", "p2")
	mustRun(t, e)
	if len(e.FactsMatching(Sym("needs-diagnosis"), Sym("p1"))) != 1 {
		t.Error("negation failed to pass for p1")
	}
	if len(e.FactsMatching(Sym("needs-diagnosis"), Sym("p2"))) != 0 {
		t.Error("negation matched despite diagnosis fact for p2")
	}
}

func TestSaliencePriority(t *testing.T) {
	e := mustLoad(t, `
(defrule low (go) => (call record low))
(defrule high (declare (salience 100)) (go) => (call record high))
`)
	var order []string
	e.RegisterFunc("record", func(args []Value) error {
		order = append(order, args[0].Sym)
		return nil
	})
	e.AssertF("go")
	mustRun(t, e)
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Errorf("firing order = %v, want [high low]", order)
	}
}

func TestRefractionNoRefire(t *testing.T) {
	e := mustLoad(t, `
(defrule once (tick) => (call count))
`)
	n := 0
	e.RegisterFunc("count", func([]Value) error { n++; return nil })
	e.AssertF("tick")
	mustRun(t, e)
	mustRun(t, e) // second run must not refire on the same fact
	if n != 1 {
		t.Errorf("rule fired %d times on one fact, want 1", n)
	}
	// A retract + re-assert creates a new fact id: the rule fires again.
	f := e.FactsMatching(Sym("tick"))[0]
	e.Retract(f.ID())
	e.AssertF("tick")
	mustRun(t, e)
	if n != 2 {
		t.Errorf("rule fired %d times after re-assert, want 2", n)
	}
}

func TestRetractViaFactAddress(t *testing.T) {
	e := mustLoad(t, `
(defrule consume
  ?f <- (request ?x)
  =>
  (retract ?f)
  (assert (served ?x)))
`)
	e.AssertF("request", 1)
	e.AssertF("request", 2)
	mustRun(t, e)
	if n := len(e.FactsMatching(Sym("request"), Sym("?"))); n != 0 {
		t.Errorf("%d request facts remain", n)
	}
	if n := len(e.FactsMatching(Sym("served"), Sym("?"))); n != 2 {
		t.Errorf("%d served facts, want 2", n)
	}
}

func TestChainedInference(t *testing.T) {
	// Forward chaining across three levels, as the host manager does:
	// violation + reading -> diagnosis -> corrective action.
	e := mustLoad(t, `
(defrule diagnose-local
  (violation ?p)
  (reading ?p buffer_size ?len)
  (test (>= ?len 8))
  =>
  (assert (diagnosis ?p local-cpu)))

(defrule act-on-local
  (diagnosis ?p local-cpu)
  (reading ?p frame_rate ?fps)
  =>
  (call boost ?p (- 25 ?fps)))
`)
	var boosted string
	var amount float64
	e.RegisterFunc("boost", func(args []Value) error {
		boosted = args[0].Sym
		amount = args[1].Num
		return nil
	})
	e.AssertF("violation", "p42")
	e.AssertF("reading", "p42", "buffer_size", 12)
	e.AssertF("reading", "p42", "frame_rate", 14)
	mustRun(t, e)
	if boosted != "p42" || amount != 11 {
		t.Errorf("boost(%q, %v), want boost(p42, 11)", boosted, amount)
	}
}

func TestArithmeticInAssert(t *testing.T) {
	e := mustLoad(t, `
(defrule sum
  (pair ?a ?b)
  =>
  (assert (total (+ ?a ?b) (max ?a ?b) (abs (- ?a ?b)))))
`)
	e.AssertF("pair", 3, 8)
	mustRun(t, e)
	fs := e.FactsMatching(Sym("total"), Sym("?x"), Sym("?y"), Sym("?z"))
	if len(fs) != 1 {
		t.Fatalf("total facts: %d", len(fs))
	}
	f := fs[0]
	if f.At(1).Num != 11 || f.At(2).Num != 8 || f.At(3).Num != 5 {
		t.Errorf("computed fact = %v", f)
	}
}

func TestDeffacts(t *testing.T) {
	e := mustLoad(t, `
(deffacts thresholds
  (threshold buffer_size 8)
  (threshold cpu_load 5))
(defrule noop (threshold ?k ?v) => (assert (seen ?k)))
`)
	if e.FactCount() != 2 {
		t.Fatalf("deffacts asserted %d facts, want 2", e.FactCount())
	}
	mustRun(t, e)
	if len(e.FactsMatching(Sym("seen"), Sym("?"))) != 2 {
		t.Error("rules did not see deffacts")
	}
}

func TestDuplicateAssertIsNoop(t *testing.T) {
	e := NewEngine()
	id1 := e.AssertF("x", 1)
	id2 := e.AssertF("x", 1)
	if id1 != id2 {
		t.Errorf("duplicate assert created new fact: %d vs %d", id1, id2)
	}
	if e.FactCount() != 1 {
		t.Errorf("fact count = %d", e.FactCount())
	}
}

func TestRetractMatching(t *testing.T) {
	e := NewEngine()
	e.AssertF("reading", "p1", "fps", 20)
	e.AssertF("reading", "p1", "jitter", 2)
	e.AssertF("reading", "p2", "fps", 30)
	n := e.RetractMatching(F("reading", "p1", "?", "?")...)
	if n != 2 {
		t.Errorf("retracted %d, want 2", n)
	}
	if e.FactCount() != 1 {
		t.Errorf("facts left = %d, want 1", e.FactCount())
	}
}

func TestWildcardAndRepeatedVariable(t *testing.T) {
	e := mustLoad(t, `
(defrule self-loop
  (edge ?x ?x)
  =>
  (assert (loop ?x)))
`)
	e.AssertF("edge", "a", "a")
	e.AssertF("edge", "a", "b")
	mustRun(t, e)
	if len(e.FactsMatching(Sym("loop"), Sym("?"))) != 1 {
		t.Error("repeated variable did not enforce equality")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`(defrule)`,
		`(defrule r => (assert (x)))`,                            // empty LHS
		`(defrule r (a) =>)`,                                     // empty RHS
		`(defrule r (a) (assert (x)))`,                           // missing =>
		`(defrule r (a) => (explode))`,                           // unknown action
		`(defrule r (a (nested)) => (assert (x)))`,               // nested pattern
		`(deffacts d (a ?x))`,                                    // variable in fact
		`(frobnicate)`,                                           // unknown top form
		`(defrule r (declare (salience x)) (a) => (assert (b)))`, // bad salience
	}
	for _, src := range bad {
		if _, _, err := ParseRules(src); err == nil {
			t.Errorf("ParseRules(%q) succeeded", src)
		}
	}
}

func TestRunLimit(t *testing.T) {
	// A self-feeding rule would run forever without a limit.
	e := mustLoad(t, `
(defrule grow
  (n ?x)
  =>
  (assert (n (+ ?x 1))))
`)
	e.AssertF("n", 0)
	n, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("fired %d with limit 10", n)
	}
}

func TestCallErrorPropagates(t *testing.T) {
	e := mustLoad(t, `(defrule r (go) => (call nothere))`)
	e.AssertF("go")
	if _, err := e.Run(0); err == nil || !strings.Contains(err.Error(), "nothere") {
		t.Errorf("missing callback error = %v", err)
	}
}

func TestLogAction(t *testing.T) {
	e := mustLoad(t, `(defrule r (v ?x) => (log "value" ?x) (assert (done)))`)
	var got string
	e.Logf = func(format string, args ...any) { got = strings.TrimSpace(sprintf(format, args...)) }
	e.AssertF("v", 7)
	mustRun(t, e)
	if got != "value 7" {
		t.Errorf("log output = %q", got)
	}
}

func sprintf(format string, args ...any) string {
	return strings.TrimSpace(fmtSprintf(format, args...))
}

func TestEvalUnboundVariableError(t *testing.T) {
	e := mustLoad(t, `(defrule r (a ?x) => (assert (b ?y)))`)
	e.AssertF("a", 1)
	if _, err := e.Run(0); err == nil {
		t.Error("unbound RHS variable did not error")
	}
}

func TestFactString(t *testing.T) {
	f := &Fact{items: F("reading", "p1", Str("label"), 2.5)}
	if got := f.String(); got != `(reading p1 "label" 2.5)` {
		t.Errorf("String = %q", got)
	}
	if f.Relation() != "reading" {
		t.Errorf("Relation = %q", f.Relation())
	}
}

func fmtSprintf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
