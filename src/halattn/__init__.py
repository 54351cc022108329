"""Distance-weighted co-occurrence embeddings with attention pooling."""
