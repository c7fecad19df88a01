mandel <- function(size) {
  total <- 0L
  fsize <- size * 1.0
  for (yi in 1:size) {
    ci <- 2.0 * yi / fsize - 1.0
    for (xi in 1:size) {
      cr <- 2.0 * xi / fsize - 1.5
      zr <- 0.0; zi <- 0.0
      k <- 0L
      inside <- TRUE
      while (k < 50L) {
        k <- k + 1L
        zr2 <- zr * zr
        zi2 <- zi * zi
        if (zr2 + zi2 > 4.0) { inside <- FALSE; k <- 50L }
        else {
          nzr <- zr2 - zi2 + cr
          zi <- 2.0 * zr * zi + ci
          zr <- nzr
        }
      }
      if (inside) total <- total + 1L
    }
  }
  total
}
