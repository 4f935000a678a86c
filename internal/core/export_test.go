package core

// StageNames lists the engine's stages in execution order.
func (e *Engine) StageNames() []string {
	names := make([]string, len(e.stages))
	for i, s := range e.stages {
		names[i] = s.Name()
	}
	return names
}
