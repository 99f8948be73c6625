package plan

// Rendered reports whether p's text has been rendered and stored.
func Rendered(p *Plan) bool { return p.text.Load() != nil }
