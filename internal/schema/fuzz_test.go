package schema

import (
	"os"
	"path/filepath"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/dsl"
	"segbus/internal/m2t"
)

// quirks are inputs on the edges of what encoding/xml accepts into
// xsSchema; the scanner must agree with it on each.
var quirks = []string{
	``,
	`<<<>>>`,
	`<a/>`,
	`junk<a/>trailing<<<`,
	`<a/></b>`,
	`</b><a/>`,
	`<!DOCTYPE x [<!ENTITY e "<>"> <!-- c -->]><?pi data?><!-- c --><a/>`,
	`<?xml version="1.0" encoding="utf-8"?><a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
	`<a><?xml encoding='latin1'?></a>`,
	`<s><element p:name="x" q:type="T"/></s>`,
	`<s><element xmlns:name="x" name="y" name="z"/></s>`,
	`<s><element :name="x" name:="y"/></s>`,
	`<s><element a:b:name="x"/></s>`,
	`<s><element name=x/></s>`,
	`<s><element name="x"type="y"/></s>`,
	`<s><complexType name="T"><annotation><appinfo>k=<!-- c -->1<b>zz</b><![CDATA[2]]>&amp;</appinfo></annotation></complexType></s>`,
	`<s><annotation><appinfo>a&#65;&#x42;&lt;&gt;&quot;&apos;</appinfo><appinfo/></annotation></s>`,
	`<s><annotation><appinfo>&bogus;</appinfo></annotation></s>`,
	`<s><annotation><appinfo>&#0;</appinfo></annotation></s>`,
	`<s><annotation><appinfo>&#xD800;&#x10FFFF;</appinfo></annotation></s>`,
	`<s><annotation><appinfo>&#x110000;</appinfo></annotation></s>`,
	`<s><annotation><appinfo>]]></appinfo></annotation></s>`,
	`<s><annotation><appinfo>a` + "\r\n" + `b` + "\r" + `c</appinfo></annotation></s>`,
	`<s><annotation><appinfo>` + "\x00" + `</appinfo></annotation></s>`,
	`<s><annotation><appinfo>` + "\xff" + `</appinfo></annotation></s>`,
	`<s><!-- ` + "\xff\x00" + ` --><element name="x"/></s>`,
	`<s><!-- a -- b --></s>`,
	`<s><![CDATA[unterminated</s>`,
	`<s><element name="unterminated/></s>`,
	`<s></t>`,
	`<x:s></y:s>`,
	`<x:s></x:s>`,
	`<s><all><element name="x"/></all><element name="y"/></s>`,
	`<s><complexType name="T"><element name="x"/><all><element name="y" type="Y"><complexType name="U"/></element></all></complexType></s>`,
	`<s><annotation><annotation><appinfo>nested</appinfo></annotation></annotation></s>`,
	`<é:s><élément name="ü"/></é:s>`,
	`<1s/>`,
}

// seedSchemes adds every scenario of testdata/scenarios, rendered
// through m2t, to the fuzzer's corpus: psm selects the platform
// scheme, else the application scheme.
func seedSchemes(f *testing.F, psm bool) {
	paths, err := filepath.Glob("../../testdata/scenarios/*.sbd")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no scenarios: %v", err)
	}
	for _, path := range paths {
		src, err := os.Open(path)
		if err != nil {
			f.Fatal(err)
		}
		doc, err := dsl.Parse(src)
		src.Close()
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		var data []byte
		if psm {
			data, err = m2t.GeneratePSM(doc.Platform)
		} else {
			data, err = m2t.GeneratePSDF(doc.Model)
		}
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(data)
	}
	for _, q := range quirks {
		f.Add([]byte(q))
	}
}

// FuzzParsePSDF compares the scanner with the encoding/xml oracle on
// arbitrary bytes, seeded with application schemes: both must fail,
// or both must return the same xsSchema. What ParsePSDF accepts must
// also be a valid model.
func FuzzParsePSDF(f *testing.F) {
	seedSchemes(f, false)
	if data, err := m2t.GeneratePSDF(apps.MP3Model()); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := differential(data); d != "" {
			t.Fatal(d)
		}
		m, err := ParsePSDF(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted an invalid model: %v", err)
		}
	})
}

// FuzzParsePSM likewise for platform schemes.
func FuzzParsePSM(f *testing.F) {
	seedSchemes(f, true)
	if data, err := m2t.GeneratePSM(apps.MP3Platform3(36)); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := differential(data); d != "" {
			t.Fatal(d)
		}
		p, err := ParsePSM(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted an invalid platform: %v", err)
		}
	})
}
