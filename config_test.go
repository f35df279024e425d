package esr

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestQuickConfigScopesTableMatchesREADME: README's Configuration scopes
// table is one row per Config field, in declaration order, each naming the
// field by its json tag (the Go name when it is not serialized) and giving
// the scope its scope tag declares — so adding, moving or rescoping a knob
// without its row fails here.
func TestQuickConfigScopesTableMatchesREADME(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n### Configuration scopes\n")
	if !ok {
		t.Fatal("README.md has no Configuration scopes section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	row := regexp.MustCompile("(?m)^\\| `(\\w+)` \\| (\\w+) \\|")
	var got []string
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		got = append(got, m[1]+" "+m[2])
	}
	var want []string
	typ := reflect.TypeOf(Config{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" {
			name = f.Name
		}
		want = append(want, name+" "+f.Tag.Get("scope"))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("README Configuration scopes rows (field scope):\n  %s\nConfig declares:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
