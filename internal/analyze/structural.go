package analyze

import (
	"segbus/internal/dsl"
	"segbus/internal/sched"
)

// The structural analyzer surfaces the existing dsl/psdf/platform
// validators behind their stable codes: PSDF well-formedness
// (SB001–SB010), platform constraints and mapping/role checks
// (SB020–SB032), the schedule's input limits (SB033/SB034) and
// DSL-level consistency (SB040/SB041). It is the exact validation set
// the emulator applies before a run, so an error here means the
// emulator would reject the model.
func init() {
	Register(&Analyzer{
		Name: "structural",
		Doc:  "PSDF, platform and DSL well-formedness (the emulator's admission checks)",
		Run:  runStructural,
	})
}

func runStructural(pass *Pass) {
	doc := pass.Doc
	if doc == nil {
		doc = &dsl.Document{Model: pass.Model, Platform: pass.Platform}
	}
	for _, d := range doc.Validate() {
		sev := SeverityError
		if d.Severity == dsl.SeverityWarning {
			sev = SeverityWarning
		}
		pass.Report(Diagnostic{
			Code:     d.Code,
			Severity: sev,
			Element:  d.Element,
			Message:  d.Message,
		})
	}
	if plat := doc.Platform; plat != nil && plat.PackageSize > 0 {
		if le, ok := sched.CheckLimits(doc.Model.Flows(), plat.PackageSize).(*sched.LimitError); ok {
			pass.Reportf(le.Code, SeverityError, plat.Name, "%s", le.Message)
		}
	}
}
