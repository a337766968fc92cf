package analyzer

import (
	"strings"
	"testing"
)

// errors_test.go sweeps the analyzer's user-facing error paths: every case
// is a distinct misuse with a distinct diagnostic.
func TestAnalyzerErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		q    string
		want string
	}{
		{"unknown relation", `SELECT 1 FROM nope`, "does not exist"},
		{"unknown column", `SELECT nope FROM t`, "does not exist"},
		{"unknown qualified", `SELECT t.nope FROM t`, "does not exist"},
		{"ambiguous", `SELECT a FROM t, u`, "ambiguous"},
		{"where not boolean", `SELECT a FROM t WHERE a`, "boolean"},
		{"having not boolean", `SELECT count(*) FROM t HAVING a + 1`, "GROUP BY"},
		{"join on not boolean", `SELECT 1 FROM t JOIN u ON t.a + u.a`, "boolean"},
		{"union arity", `SELECT a, b FROM t UNION SELECT a FROM u`, "same number of columns"},
		{"group position", `SELECT b FROM t GROUP BY 9`, "position"},
		{"order position", `SELECT a FROM t ORDER BY 9`, "position"},
		{"limit non-const", `SELECT a FROM t LIMIT b`, "constant"},
		{"offset non-const", `SELECT a FROM t OFFSET b`, "constant"},
		{"agg in where", `SELECT a FROM t WHERE sum(a) > 1`, "not allowed"},
		{"nested agg", `SELECT sum(count(*)) FROM t`, "nested"},
		{"agg arity", `SELECT sum(a, a) FROM t`, "one argument"},
		{"star agg", `SELECT sum(*) FROM t`, "not a valid aggregate"},
		{"unknown function", `SELECT frobnicate(a) FROM t`, "unknown function"},
		{"function arity", `SELECT substr(b) FROM t`, "arguments"},
		{"distinct scalar func", `SELECT upper(DISTINCT b) FROM t`, "not an aggregate"},
		{"scalar columns", `SELECT a FROM t WHERE a = (SELECT a, c FROM u)`, "one column"},
		{"in subquery columns", `SELECT a FROM t WHERE a IN (SELECT a, c FROM u)`, "one column"},
		{"quantified columns", `SELECT a FROM t WHERE a > ANY (SELECT a, c FROM u)`, "one column"},
		{"using missing", `SELECT 1 FROM t JOIN u USING (b)`, "both join sides"},
		{"star unknown rel", `SELECT w.* FROM t`, "not found"},
		{"bad cast type", `SELECT CAST(a AS blob) FROM t`, "unknown type"},
		{"distinct order", `SELECT DISTINCT b FROM t ORDER BY a`, "DISTINCT"},
		{"prov attr missing", `SELECT a FROM t PROVENANCE (zz)`, "does not exist"},
		{"bare column with agg", `SELECT a, count(*) FROM t`, "GROUP BY"},
		{"not integer", `SELECT NOT 5`, "NOT condition must be boolean, got integer"},
		{"not text", `SELECT NOT 'abc'`, "NOT condition must be boolean, got text"},
		{"and integers", `SELECT 1 AND 2`, "AND condition must be boolean, got integer"},
		{"and in where", `SELECT 'x' WHERE 1 AND 2`, "AND condition must be boolean, got integer"},
		{"or column", `SELECT a FROM t WHERE a > 1 OR b`, "OR condition must be boolean, got text"},
		{"case when integer", `SELECT CASE WHEN 5 THEN 'a' ELSE 'b' END`, "CASE WHEN condition must be boolean, got integer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := analyze(t, c.q)
			if err == nil {
				t.Fatalf("analyze(%q) must fail", c.q)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("analyze(%q) error = %q, want containing %q", c.q, err, c.want)
			}
		})
	}
}

// TestQuantifiedAnalysis covers the quantified-comparison resolutions.
func TestQuantifiedAnalysis(t *testing.T) {
	// = ANY lowers to an IN subplan; <> ALL to NOT IN; others keep CmpOp.
	for _, q := range []string{
		`SELECT a FROM t WHERE a = ANY (SELECT a FROM u)`,
		`SELECT a FROM t WHERE a <> ALL (SELECT a FROM u)`,
		`SELECT a FROM t WHERE a >= SOME (SELECT a FROM u)`,
		`SELECT a FROM t WHERE a < ALL (SELECT a FROM u)`,
	} {
		if _, err := analyze(t, q); err != nil {
			t.Errorf("analyze(%q): %v", q, err)
		}
	}
}
