package core

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/block"
	"repro/internal/feature"
	"repro/internal/ml"
	"repro/internal/rules"
)

// workflowDTO is the on-disk form of a Workflow: the equivalent of the
// "Python script of a sequence of commands" the paper captures a finished
// development-stage workflow as for the production stage.
type workflowDTO struct {
	Blocker  blockerDTO     `json:"blocker"`
	Features []feature.Spec `json:"features"`
	// Missing is Features.Missing; absent (files saved before the field
	// existed) reads as feature.MissingZero, its zero value.
	Missing feature.MissingPolicy `json:"missing,omitempty"`
	Matcher json.RawMessage       `json:"matcher"`
	Promote []string              `json:"promote_rules,omitempty"`
	Veto    []string              `json:"veto_rules,omitempty"`
}

// blockerDTO serializes the standard blocker configurations.
type blockerDTO struct {
	Type       string  `json:"type"`
	Attr       string  `json:"attr,omitempty"`
	MinOverlap int     `json:"min_overlap,omitempty"`
	Threshold  float64 `json:"threshold,omitempty"`
	Window     int     `json:"window,omitempty"`
}

// SaveWorkflow serializes the workflow to JSON. Custom blockers,
// transforms, and non-registry features are rejected with an explanatory
// error — those must live in code, exactly as custom Python steps do in
// the paper's scripts.
func SaveWorkflow(w *Workflow) ([]byte, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	dto := workflowDTO{}

	switch b := w.Blocker.(type) {
	case block.AttrEquivalenceBlocker:
		dto.Blocker = blockerDTO{Type: "attr_equiv", Attr: b.Attr}
	case block.OverlapBlocker:
		dto.Blocker = blockerDTO{Type: "overlap", Attr: b.Attr, MinOverlap: b.MinOverlap}
	case block.JaccardBlocker:
		dto.Blocker = blockerDTO{Type: "jaccard", Attr: b.Attr, Threshold: b.Threshold}
	case block.WholeTupleOverlapBlocker:
		dto.Blocker = blockerDTO{Type: "whole_tuple_overlap", MinOverlap: b.MinOverlap}
	case block.SortedNeighborhoodBlocker:
		dto.Blocker = blockerDTO{Type: "sorted_neighborhood", Attr: b.Attr, Window: b.Window}
	default:
		return nil, fmt.Errorf("core: save: blocker %T does not serialize", w.Blocker)
	}

	specs, err := w.Features.Specs()
	if err != nil {
		return nil, err
	}
	dto.Features, dto.Missing = specs, w.Features.Missing

	matcher, err := ml.Export(w.Matcher)
	if err != nil {
		return nil, err
	}
	dto.Matcher = matcher

	if w.Rules != nil {
		for _, r := range w.Rules.Promote.Rules {
			dto.Promote = append(dto.Promote, r.String())
		}
		for _, r := range w.Rules.Veto.Rules {
			dto.Veto = append(dto.Veto, r.String())
		}
	}
	return json.MarshalIndent(&dto, "", "  ")
}

// LoadWorkflow deserializes a workflow produced by SaveWorkflow.
func LoadWorkflow(data []byte) (*Workflow, error) {
	var dto workflowDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("core: load workflow: %w", err)
	}
	w := &Workflow{}

	switch dto.Blocker.Type {
	case "attr_equiv":
		w.Blocker = block.AttrEquivalenceBlocker{Attr: dto.Blocker.Attr}
	case "overlap":
		w.Blocker = block.OverlapBlocker{Attr: dto.Blocker.Attr, MinOverlap: dto.Blocker.MinOverlap}
	case "jaccard":
		w.Blocker = block.JaccardBlocker{Attr: dto.Blocker.Attr, Threshold: dto.Blocker.Threshold}
	case "whole_tuple_overlap":
		w.Blocker = block.WholeTupleOverlapBlocker{MinOverlap: dto.Blocker.MinOverlap}
	case "sorted_neighborhood":
		w.Blocker = block.SortedNeighborhoodBlocker{Attr: dto.Blocker.Attr, Window: dto.Blocker.Window}
	default:
		return nil, fmt.Errorf("core: load workflow: unknown blocker type %q", dto.Blocker.Type)
	}

	fs, err := feature.FromSpecs(dto.Features, dto.Missing)
	if err != nil {
		return nil, err
	}
	w.Features = fs

	matcher, err := ml.Import(dto.Matcher, fs.Len())
	if err != nil {
		return nil, err
	}
	w.Matcher = matcher

	if len(dto.Promote) > 0 || len(dto.Veto) > 0 {
		mr := &MatchRules{}
		for i, src := range dto.Promote {
			r, err := rules.Parse(fmt.Sprintf("promote#%d", i), src)
			if err != nil {
				return nil, err
			}
			mr.Promote.Add(r)
		}
		for i, src := range dto.Veto {
			r, err := rules.Parse(fmt.Sprintf("veto#%d", i), src)
			if err != nil {
				return nil, err
			}
			mr.Veto.Add(r)
		}
		w.Rules = mr
	}
	return w, w.Validate()
}

// SaveWorkflowFile writes the workflow to the named file.
func SaveWorkflowFile(w *Workflow, path string) error {
	data, err := SaveWorkflow(w)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadWorkflowFile reads a workflow from the named file.
func LoadWorkflowFile(path string) (*Workflow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadWorkflow(data)
}
