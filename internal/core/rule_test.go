package core

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// TestRuleNumbersNameOneText holds the rule numbers the detectors fold by
// to the texts Key() folds by. Over every argument tuple a detector can
// pass — the RMA kind pairs, local class × remote kind × overlap or none,
// and the three within-epoch templates over both buffer roles — with
// every kind in every kind position, so that no kind aliases another, and
// at two windows: each rule renders the text its tuple names, and two
// (rule, window) pairs are equal exactly when their (text, window) pairs
// are.
func TestRuleNumbersNameOneText(t *testing.T) {
	var kinds []trace.Kind
	for k := 0; k <= trace.KindCount; k++ { // KindCount renders as Kind(N)
		kinds = append(kinds, trace.Kind(k))
	}
	roles := []bufRole{originBuf, resultBuf}

	// Each tuple's text is spelled out here from its arguments, as the
	// detectors rendered it before rules were numbered.
	type tuple struct {
		r    rule
		text func(win int32) string
	}
	var tuples []tuple
	add := func(r rule, text func(win int32) string) { tuples = append(tuples, tuple{r, text}) }
	for _, k1 := range kinds {
		for _, k2 := range kinds {
			add(rmaPairRule(k1, k2), func(int32) string { return rmaRuleText(k1, k2) })
			add(targetsRule(k1, k2), func(int32) string {
				return fmt.Sprintf("%s and %s to overlapping target regions within one epoch", k1, k2)
			})
			for _, r1 := range roles {
				add(localSideRule(k1, r1, k2), func(int32) string {
					return fmt.Sprintf("local %s overlaps the %s buffer of a pending %s in the same epoch", k1, r1, k2)
				})
				for _, r2 := range roles {
					add(sidesRule(r1, k1, r2, k2), func(int32) string {
						return fmt.Sprintf("%s buffer of %s overlaps the %s buffer of %s within one epoch", r1, k1, r2, k2)
					})
				}
			}
		}
		for cls := OpLoad; cls < numOps; cls++ {
			for _, noOverlap := range []bool{false, true} {
				add(localPairRule(cls, k1, noOverlap), func(win int32) string { return localRuleText(cls, k1, win, noOverlap) })
			}
		}
	}

	type numbered struct {
		r   rule
		win int32
	}
	type texted struct {
		text string
		win  int32
	}
	byNumber := map[numbered]string{}
	byText := map[texted]rule{}
	for _, win := range []int32{0, 7} {
		for _, tu := range tuples {
			text := tu.text(win)
			if got := tu.r.text(win); got != text {
				t.Fatalf("rule %#x on window %d renders %q, want %q", tu.r, win, got, text)
			}
			if prev, ok := byNumber[numbered{tu.r, win}]; ok && prev != text {
				t.Fatalf("rule %#x on window %d names %q and %q", tu.r, win, prev, text)
			}
			byNumber[numbered{tu.r, win}] = text
			if prev, ok := byText[texted{text, win}]; ok && prev != tu.r {
				t.Fatalf("%q on window %d has rule numbers %#x and %#x", text, win, prev, tu.r)
			}
			byText[texted{text, win}] = tu.r
		}
	}
	if len(byNumber) != len(byText) {
		t.Fatalf("%d (rule, window) pairs name %d texts", len(byNumber), len(byText))
	}
}
