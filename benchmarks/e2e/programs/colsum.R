f <- function(colIndex, t) {
  dataCol <- t[[colIndex]]
  res <- 0
  for (i in 1:length(dataCol)) res <- res + dataCol[[i]]
  res
}

columnwiseSum <- function(t) {
  res <- c()
  for (i in 1L:cols) res[[i]] <- f(i, t)
  res
}
