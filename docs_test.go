package bgpvr

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

// No heading repeats in the long documents, so a section pasted in a
// second time, or a new one that shadows an old one, fails here.
// Lines inside fenced code blocks are not headings.
func TestDocHeadingsUnique(t *testing.T) {
	for _, name := range []string{"EXPERIMENTS.md", "DESIGN.md"} {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		fenced := false
		sc := bufio.NewScanner(f)
		for n := 1; sc.Scan(); n++ {
			line := sc.Text()
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
				continue
			}
			if fenced || !strings.HasPrefix(line, "#") {
				continue
			}
			if first, ok := seen[line]; ok {
				t.Errorf("%s:%d repeats the heading of line %d: %q", name, n, first, line)
				continue
			}
			seen[line] = n
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if len(seen) == 0 {
			t.Errorf("%s: no headings read", name)
		}
	}
}
