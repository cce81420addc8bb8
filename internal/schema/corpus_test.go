package schema_test

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"segbus/internal/conform"
	"segbus/internal/m2t"
	"segbus/internal/schema"
)

// respell is one rewrite of a generated scheme that changes its
// spelling and not its meaning.
type respell struct {
	name  string
	apply func(string) string
}

var (
	attrPair    = regexp.MustCompile(`name="([^"]*)" type="([^"]*)"`)
	attrValue   = regexp.MustCompile(`="([^"]*)"`)
	appInfo     = regexp.MustCompile(`<xs:appinfo>([^<]*)</xs:appinfo>`)
	appInfoPair = regexp.MustCompile(`<xs:appinfo>([^<=]*)=([^<]*)</xs:appinfo>`)
)

var respellings = []respell{
	{"whitespace", func(s string) string {
		return strings.NewReplacer(
			"<xs:element ", "<xs:element\n\t ",
			`="`, " =\t\"",
			`"/>`, "\"\r\n/>",
			">\n", ">\r\n\t\n",
			"</xs:all>", "</xs:all \t>",
		).Replace(s)
	}},
	{"attribute-order", func(s string) string {
		return attrPair.ReplaceAllString(s, `type="$2" name="$1"`)
	}},
	{"quote-style", func(s string) string {
		return attrValue.ReplaceAllString(s, `='$1'`)
	}},
	{"prefix-xsd", func(s string) string {
		return strings.ReplaceAll(s, "xs:", "xsd:") // xmlns:xs= becomes xmlns:xsd=
	}},
	{"prefix-none", func(s string) string {
		// xmlns:xs stays declared, and unused.
		return strings.NewReplacer("<xs:", "<", "</xs:", "</").Replace(s)
	}},
	{"comments", func(s string) string {
		s = strings.ReplaceAll(s, ">", "><!-- c -->")
		return appInfoPair.ReplaceAllString(s, "<xs:appinfo>$1<!-- mid -->=$2<!---->s</xs:appinfo>")
	}},
	{"cdata", func(s string) string {
		return appInfo.ReplaceAllString(s, "<xs:appinfo><![CDATA[$1]]></xs:appinfo>")
	}},
	{"cdata-split", func(s string) string {
		return appInfoPair.ReplaceAllString(s, "<xs:appinfo>$1<![CDATA[=]]>$2</xs:appinfo>")
	}},
	{"references", func(s string) string {
		s = strings.NewReplacer(
			`="P`, `="&#80;`,
			`="S`, `="&#x53;`,
			`="s`, `="&#x73;`,
			"Hz=", "Hz&#61;",
			"Size=", "Size&#x3D;",
			"Ticks=", "Ticks&#0061;",
		).Replace(s)
		return strings.ReplaceAll(s, "<xs:complexType ", `<xs:complexType note="&lt;&amp;&gt;&quot;&apos;" `)
	}},
}

// TestRespelledCorpus runs the conform servable corpus (seeds 1–3)
// through every respelling: each respelled scheme must decode to the
// same struct as the original, agree with the encoding/xml oracle, and
// parse to a model that renders back to the original bytes.
func TestRespelledCorpus(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 5
	}
	applied := map[string]int{}
	for seed := int64(1); seed <= 3; seed++ {
		cases, err := conform.ServableCases(seed, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range cases {
			psdfXML, psmXML, err := c.Schemes()
			if err != nil {
				t.Fatal(err)
			}
			for _, doc := range []struct {
				kind   string
				data   []byte
				render func([]byte) ([]byte, error)
			}{
				{"psdf", psdfXML, func(b []byte) ([]byte, error) {
					m, err := schema.ParsePSDF(b)
					if err != nil {
						return nil, err
					}
					return m2t.GeneratePSDF(m)
				}},
				{"psm", psmXML, func(b []byte) ([]byte, error) {
					p, err := schema.ParsePSM(b)
					if err != nil {
						return nil, err
					}
					return m2t.GeneratePSM(p)
				}},
			} {
				want, err := schema.Decoded(doc.data)
				if err != nil {
					t.Fatalf("seed %d case %d %s: %v", seed, ci, doc.kind, err)
				}
				for _, r := range respellings {
					label := doc.kind + "/" + r.name
					mutated := []byte(r.apply(string(doc.data)))
					if bytes.Equal(mutated, doc.data) {
						continue // nothing to respell, e.g. no appinfo
					}
					applied[r.name]++
					if d := schema.Differential(mutated); d != "" {
						t.Fatalf("seed %d case %d %s: %s\n%s", seed, ci, label, d, mutated)
					}
					got, err := schema.Decoded(mutated)
					if err != nil {
						t.Fatalf("seed %d case %d %s: %v\n%s", seed, ci, label, err, mutated)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d case %d %s: decodes differently\n%s", seed, ci, label, mutated)
					}
					back, err := doc.render(mutated)
					if err != nil {
						t.Fatalf("seed %d case %d %s: %v", seed, ci, label, err)
					}
					if !bytes.Equal(back, doc.data) {
						t.Fatalf("seed %d case %d %s: renders back differently", seed, ci, label)
					}
				}
			}
		}
	}
	for _, r := range respellings {
		if applied[r.name] == 0 {
			t.Errorf("respelling %s never applied", r.name)
		}
	}
}
