package pathexpr

import "testing"

// FuzzParse: for any input the path-expression parser returns an
// expression or an error, never panics, and an accepted expression prints
// and compiles. Seeds are the parser tests' valid and malformed inputs.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		"Entry.Movie.Title",
		"Entry.(Movie|TV-Show).Title",
		"_*",
		"Movie.(!Movie)*",
		"a.b?.c+",
		`like "act%"`,
		"> 65536",
		"isint",
		`"Allen"`,
		`_*.(like "Act%")`,
		"Entry.$kind.Title",
		"", "(a", "a..b", "a |", "like 5", "a)(", "> ", "!",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		_ = e.String()
		Compile(e)
	})
}
