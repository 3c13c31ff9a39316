// Command docscheck keeps the prose honest about the code: every
// identifier the documents quote in backticks must still occur, as a
// word, in some .go file of the tree. Checked are Test*/Benchmark*/Fuzz*
// names wherever a code span mentions one (a name followed by "/" or "*"
// is a prefix: `TestLemma1/2/3`, `TestDifferential*`), and, in a span that
// is nothing but an identifier or a selector chain, its camelCase parts
// and the exported names it selects (`pkg.Name`, `Type.Method()`). Shell
// lines, expressions, file names, metric names and flags pass unread.
// The walk skips this command's own directory, so the names its comments
// quote vouch for nothing. Run from the repository root (make docs-check); exits 1 listing what
// the documents still name and the code no longer has.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

var (
	docs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}
	self = filepath.Join("scripts", "docscheck")

	word     = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	chain    = regexp.MustCompile("^`[*&]?(\\w+(?:\\.\\w+)*)(?:\\(.*\\))?`$")

	testName  = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z0-9]\w*$`)
	camelCase = regexp.MustCompile(`^[a-z][a-z0-9]*[A-Z]\w*$`)
	exported  = regexp.MustCompile(`^[A-Z]\w*[a-z]\w*$`)
)

func main() {
	words := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path != "." && strings.HasPrefix(d.Name(), ".") || path == self) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, w := range word.FindAll(src, -1) {
			words[string(w)] = true
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	known := func(w string, prefix bool) bool {
		if words[w] || !prefix {
			return words[w]
		}
		for have := range words {
			if strings.HasPrefix(have, w) {
				return true
			}
		}
		return false
	}
	stale := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(2)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				var missing []string
				for _, loc := range word.FindAllStringIndex(span, -1) {
					if w := span[loc[0]:loc[1]]; testName.MatchString(w) && !known(w, span[loc[1]] == '/' || span[loc[1]] == '*') {
						missing = append(missing, w)
					}
				}
				if m := chain.FindStringSubmatch(span); m != nil {
					for j, w := range strings.Split(m[1], ".") {
						if (camelCase.MatchString(w) || j > 0 && exported.MatchString(w)) && !known(w, false) {
							missing = append(missing, w)
						}
					}
				}
				for _, w := range missing {
					fmt.Printf("%s:%d: %s names %s, which occurs in no .go file\n", doc, i+1, span, w)
					stale++
				}
			}
		}
	}
	if stale > 0 {
		os.Exit(1)
	}
}
