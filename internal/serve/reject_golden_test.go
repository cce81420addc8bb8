package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"segbus/internal/core"
	"segbus/internal/dsl"
	"segbus/internal/psdf"
)

// unmappedPair returns the golden MP3 schemes with one extra PSDF
// process (P15) that the PSM does not host: a pair whose schemes each
// parse but disagree on the mapping (SB029).
func unmappedPair(t *testing.T) (psdfXML, psmXML string) {
	t.Helper()
	psdfXML, psmXML = goldenSchemes(t)
	psdfXML = strings.ReplaceAll(psdfXML,
		`<xs:element name="p14" type="P14"/>`,
		`<xs:element name="p14" type="P14"/><xs:element name="p15" type="P15"/>`)
	psdfXML = strings.ReplaceAll(psdfXML,
		`<xs:complexType name="P14">`,
		`<xs:complexType name="P15"><xs:all><xs:element name="P14_36_9_10" type="Transfer"/></xs:all></xs:complexType><xs:complexType name="P14">`)
	return psdfXML, psmXML
}

// scenarioRequest renders a model description from testdata/scenarios
// into an estimate request through the model-to-text transformation.
func scenarioRequest(t *testing.T, rel string) EstimateRequest {
	t.Helper()
	return scaledScenarioRequest(t, rel, 1)
}

// scaledScenarioRequest is scenarioRequest with every flow's item count
// multiplied by scale.
func scaledScenarioRequest(t *testing.T, rel string, scale int) EstimateRequest {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "scenarios", rel))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := dsl.Parse(f)
	if err != nil {
		t.Fatalf("%s: %v", rel, err)
	}
	m := psdf.NewModel(doc.Model.Name())
	for _, fl := range doc.Model.Flows() {
		fl.Items *= scale
		m.AddFlow(fl)
	}
	psdfXML, psmXML, err := core.Transform(m, doc.Platform)
	if err != nil {
		t.Fatalf("%s: %v", rel, err)
	}
	return EstimateRequest{PSDF: string(psdfXML), PSM: string(psmXML)}
}

// TestRejectionGolden pins the full bytes of every model-rejection
// response: the single endpoint's error body and the batch item JSON
// for the two deadlock scenarios and the unmapped-process pair. The
// status and code checks elsewhere cannot see a drifted message or a
// reordered diagnostic; this golden can. Regenerate after a deliberate
// change with
//
//	UPDATE_GOLDEN=1 go test -run TestRejectionGolden ./internal/serve
func TestRejectionGolden(t *testing.T) {
	psdfXML, psmXML := unmappedPair(t)
	cases := []struct {
		name string
		req  EstimateRequest
	}{
		{"deadlock/cyclic-2seg.sbd", scenarioRequest(t, "deadlock/cyclic-2seg.sbd")},
		{"deadlock/starved-order.sbd", scenarioRequest(t, "deadlock/starved-order.sbd")},
		{"unmapped-process", EstimateRequest{PSDF: psdfXML, PSM: psmXML}},
	}
	s := New(Config{Workers: 1, Queue: 4, CacheEntries: 8})
	h := s.Handler()

	var got bytes.Buffer
	batch := BatchRequest{}
	for _, c := range cases {
		rec := post(h, body(t, c.req))
		fmt.Fprintf(&got, "== %s\n-- estimate %d\n%s\n", c.name, rec.Code, rec.Body.Bytes())
		batch.Items = append(batch.Items, c.req)
	}
	rec := postBatch(h, batchBody(t, batch))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch envelope status %d: %s", rec.Code, rec.Body.String())
	}
	var env struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("batch envelope is not valid JSON: %v", err)
	}
	if len(env.Items) != len(cases) {
		t.Fatalf("%d batch items back, want %d", len(env.Items), len(cases))
	}
	for i, c := range cases {
		fmt.Fprintf(&got, "== %s\n-- batch item\n%s\n", c.name, env.Items[i])
	}

	golden := filepath.Join("testdata", "rejections.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rejection bodies drifted from golden %s\n-- got --\n%s-- want --\n%s", golden, got.Bytes(), want)
	}
}
